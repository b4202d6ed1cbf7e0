(* Black-box tests of the cfdc command line: the profile and memprof
   subcommands exit 0 on a good kernel and write well-formed JSON
   artifacts; bad flags and missing files exit non-zero; out-of-range
   shapes and kernels the front end rejects exit 1 with a one-line
   cfdc: error. Runs the real binary as a subprocess, like CI does. *)

let cfdc () =
  if Sys.file_exists "../bin/cfdc.exe" then "../bin/cfdc.exe"
  else "_build/default/bin/cfdc.exe"

let kernel name =
  let dir = if Sys.file_exists "../kernels" then "../kernels" else "kernels" in
  Filename.concat dir name

(* Run cfdc with [args]; returns the exit code, output discarded (the
   artifact files are what the assertions read). *)
let run args =
  Sys.command
    (String.concat " "
       (List.map Filename.quote (cfdc () :: args))
    ^ " >/dev/null 2>&1")

(* Like [run], but keeps stdout+stderr for assertions on diagnostics. *)
let run_capture args =
  let out = Filename.temp_file "cfdc_cli" ".out" in
  let code =
    Sys.command
      (String.concat " "
         (List.map Filename.quote (cfdc () :: args))
      ^ " >" ^ Filename.quote out ^ " 2>&1")
  in
  let ic = open_in_bin out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

(* Like [run_capture], but keeps stdout and stderr apart. *)
let run_split args =
  let out = Filename.temp_file "cfdc_cli" ".out"
  and err = Filename.temp_file "cfdc_cli" ".err" in
  let code =
    Sys.command
      (String.concat " " (List.map Filename.quote (cfdc () :: args))
      ^ " >" ^ Filename.quote out ^ " 2>" ^ Filename.quote err)
  in
  let slurp path =
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    text
  in
  let stdout = slurp out in
  (code, stdout, slurp err)

let contains ~sub s =
  let n = String.length sub and l = String.length s in
  let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
  go 0

let tmp suffix = Filename.temp_file "cfdc_cli" suffix

let parse_file what path =
  match Obs.Json.of_file path with
  | Ok t -> t
  | Error msg -> Alcotest.failf "%s is not well-formed JSON: %s" what msg

let member_exn what k t =
  match Obs.Json.member k t with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing %S" what k

let test_memprof_ok () =
  let json = tmp ".json" and trace = tmp ".trace.json" in
  let code =
    run [ "memprof"; kernel "mass.cfd"; "--name"; "mass"; "--sim-elements";
          "2"; "--json"; json; "--trace"; trace ]
  in
  Alcotest.(check int) "memprof exits 0" 0 code;
  let t = parse_file "memprof JSON" json in
  (match member_exn "memprof JSON" "audit_passed" t with
  | Obs.Json.Bool true -> ()
  | v -> Alcotest.failf "audit_passed = %s" (Obs.Json.to_string v));
  (match member_exn "memprof JSON" "kernel" t with
  | Obs.Json.String "mass" -> ()
  | v -> Alcotest.failf "kernel = %s" (Obs.Json.to_string v));
  (match member_exn "memprof JSON" "modes" t with
  | Obs.Json.List [ _; _ ] -> ()
  | v -> Alcotest.failf "expected two modes, got %s" (Obs.Json.to_string v));
  (match member_exn "memprof trace" "traceEvents" (parse_file "trace" trace) with
  | Obs.Json.List (_ :: _) -> ()
  | _ -> Alcotest.fail "counter trace has no events");
  Sys.remove json;
  Sys.remove trace

let test_memprof_reproduces_paper () =
  let json = tmp ".json" in
  let code =
    run [ "memprof"; kernel "inverse_helmholtz.cfd"; "--name";
          "inverse_helmholtz"; "--json"; json ]
  in
  Alcotest.(check int) "memprof exits 0" 0 code;
  let t = parse_file "memprof JSON" json in
  (match member_exn "memprof JSON" "no_sharing_brams" t with
  | Obs.Json.Int 31 -> ()
  | v -> Alcotest.failf "no_sharing_brams = %s" (Obs.Json.to_string v));
  (match member_exn "memprof JSON" "sharing_brams" t with
  | Obs.Json.Int 18 -> ()
  | v -> Alcotest.failf "sharing_brams = %s" (Obs.Json.to_string v));
  Sys.remove json

let test_profile_ok () =
  let metrics = tmp ".metrics.json" and trace = tmp ".trace.json" in
  let code =
    run [ "profile"; kernel "mass.cfd"; "--name"; "mass"; "--sim-elements";
          "2"; "--metrics"; metrics; "--trace"; trace ]
  in
  Alcotest.(check int) "profile exits 0" 0 code;
  let m = parse_file "profile metrics" metrics in
  (match member_exn "profile metrics" "counters" m with
  | Obs.Json.Obj (_ :: _) -> ()
  | _ -> Alcotest.fail "metrics carries no counters");
  (match member_exn "profile trace" "traceEvents" (parse_file "trace" trace) with
  | Obs.Json.List (_ :: _) -> ()
  | _ -> Alcotest.fail "trace has no events");
  Sys.remove metrics;
  Sys.remove trace

(* The sharded strategy on the profile pipeline: both spellings accepted,
   recorder leg skipped but the run itself succeeds at any jobs. *)
let test_profile_strategy_flags () =
  List.iter
    (fun args ->
      Alcotest.(check int)
        ("profile " ^ String.concat " " args ^ " exits 0")
        0
        (run
           ([ "profile"; kernel "mass.cfd"; "--name"; "mass"; "--sim-elements";
              "4" ]
           @ args)))
    [
      [ "--strategy"; "shard"; "--jobs"; "3" ];
      [ "--strategy"; "sharded" ];
      [ "--strategy"; "round"; "--jobs"; "2" ];
    ]

(* The memprof pipeline needs Kelly-reconstructable timestamps: the
   sharded strategy must be refused with a diagnostic pointing at the
   round-scheduled one, not silently mis-profiled. *)
let test_memprof_rejects_sharded () =
  let code, text =
    run_capture
      [ "memprof"; kernel "mass.cfd"; "--sim-elements"; "2"; "--strategy";
        "shard" ]
  in
  Alcotest.(check bool) "memprof --strategy shard exits non-zero" true
    (code <> 0);
  Alcotest.(check bool) "diagnostic points at round-scheduled" true
    (contains ~sub:"round-scheduled" text)

(* Like [run_capture], but with an environment assignment prefixed to
   the shell command (e.g. "CFDC_CACHE_DIR=/tmp/x"). *)
let run_capture_env env args =
  let out = Filename.temp_file "cfdc_cli" ".out" in
  let code =
    Sys.command
      (env ^ " "
      ^ String.concat " " (List.map Filename.quote (cfdc () :: args))
      ^ " >" ^ Filename.quote out ^ " 2>&1")
  in
  let ic = open_in_bin out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

let tmp_dir () =
  let d = Filename.temp_file "cfdc_cli" ".cache" in
  Sys.remove d;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_cache_dir f =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Warnings (the corrupt-entry path) go to stderr with a stable prefix;
   dropping those lines recovers the kernel-facing output for
   byte-comparison against an undisturbed run. *)
let strip_cache_warnings text =
  String.split_on_char '\n' text
  |> List.filter (fun line ->
         not
           (String.length line >= 11 && String.sub line 0 11 = "cfdc: cache"))
  |> String.concat "\n"

let test_cache_warm_identical () =
  with_cache_dir @@ fun dir ->
  let args = [ "check"; kernel "mass.cfd"; "--cache-dir"; dir ] in
  let c1, t1 = run_capture args in
  let c2, t2 = run_capture args in
  Alcotest.(check int) "cold cached check exits 0" 0 c1;
  Alcotest.(check int) "warm cached check exits 0" 0 c2;
  Alcotest.(check string) "warm output byte-identical to cold" t1 t2;
  let entries = Sys.readdir dir in
  Alcotest.(check bool) "store populated" true
    (Array.exists (fun f -> Filename.check_suffix f ".products") entries
    && Array.exists (fun f -> Filename.check_suffix f ".verdict") entries)

let test_cache_corrupt_recovers () =
  with_cache_dir @@ fun dir ->
  let args = [ "check"; kernel "mass.cfd"; "--cache-dir"; dir ] in
  let _, clean = run_capture args in
  (* truncate every entry: the next run must warn, recompute, and
     still produce the identical kernel-facing output with exit 0 *)
  Array.iter
    (fun f ->
      let path = Filename.concat dir f in
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic / 2) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc s;
      close_out oc)
    (Sys.readdir dir);
  let code, text = run_capture args in
  Alcotest.(check int) "corrupt store still exits 0" 0 code;
  Alcotest.(check bool) "warns about the corrupt entry" true
    (contains ~sub:"corrupt entry" text);
  Alcotest.(check string) "recomputed output identical"
    (strip_cache_warnings clean)
    (strip_cache_warnings text);
  let c3, t3 = run_capture args in
  Alcotest.(check int) "re-warmed run exits 0" 0 c3;
  Alcotest.(check string) "re-warmed output identical" clean t3

let test_cache_env_dir () =
  with_cache_dir @@ fun dir ->
  let env = "CFDC_CACHE_DIR=" ^ Filename.quote dir in
  let args = [ "check"; kernel "mass.cfd" ] in
  let c1, t1 = run_capture_env env args in
  let c2, t2 = run_capture_env env args in
  Alcotest.(check int) "env-cached check exits 0" 0 c1;
  Alcotest.(check int) "env-warm check exits 0" 0 c2;
  Alcotest.(check string) "env-warm output identical" t1 t2;
  Alcotest.(check bool) "CFDC_CACHE_DIR populated" true
    (Array.length (Sys.readdir dir) > 0)

let test_cache_stat_gc_clear () =
  with_cache_dir @@ fun dir ->
  let _ = run [ "check"; kernel "mass.cfd"; "--cache-dir"; dir ] in
  let code, text = run_capture [ "cache"; "stat"; "--cache-dir"; dir ] in
  Alcotest.(check int) "cache stat exits 0" 0 code;
  Alcotest.(check bool) "stat names the directory" true
    (contains ~sub:dir text);
  Alcotest.(check bool) "stat reports kinds" true
    (contains ~sub:"products" text && contains ~sub:"verdict" text);
  let code, text =
    run_capture [ "cache"; "gc"; "--cache-dir"; dir; "--max-bytes"; "0" ]
  in
  Alcotest.(check int) "cache gc exits 0" 0 code;
  Alcotest.(check bool) "gc reports removals" true
    (contains ~sub:"gc: removed" text);
  Alcotest.(check int) "gc --max-bytes 0 empties the store" 0
    (Array.length (Sys.readdir dir));
  let _ = run [ "check"; kernel "mass.cfd"; "--cache-dir"; dir ] in
  let entries = Array.length (Sys.readdir dir) in
  let code, stdout, stderr =
    run_split [ "cache"; "gc"; "--cache-dir"; dir; "--max-bytes=-5" ]
  in
  Alcotest.(check int) "gc --max-bytes=-5 exits 1" 1 code;
  Alcotest.(check string) "gc --max-bytes=-5 prints nothing on stdout" ""
    stdout;
  Alcotest.(check string) "gc --max-bytes=-5 is one cfdc: line"
    "cfdc: --max-bytes must be at least 0, got -5\n" stderr;
  Alcotest.(check int) "gc --max-bytes=-5 leaves the store untouched" entries
    (Array.length (Sys.readdir dir));
  let _ = run [ "check"; kernel "mass.cfd"; "--cache-dir"; dir ] in
  let code, text = run_capture [ "cache"; "clear"; "--cache-dir"; dir ] in
  Alcotest.(check int) "cache clear exits 0" 0 code;
  Alcotest.(check bool) "clear reports removals" true
    (contains ~sub:"clear: removed" text);
  Alcotest.(check int) "clear empties the store" 0
    (Array.length (Sys.readdir dir))

let parse_json what text =
  match Obs.Json.parse (String.trim text) with
  | Ok t -> t
  | Error msg -> Alcotest.failf "%s is not well-formed JSON: %s" what msg

(* Build identity: the human rendering names the tool and both schema
   dialects; `version --json` and the top-level `--build-info` print the
   same machine-readable record. *)
let test_version_build_info () =
  let code, text = run_capture [ "version" ] in
  Alcotest.(check int) "version exits 0" 0 code;
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " reported") true (contains ~sub text))
    [ "cfdc "; "cache key schema"; "options fingerprint"; "ocaml" ];
  let code, json_text = run_capture [ "version"; "--json" ] in
  Alcotest.(check int) "version --json exits 0" 0 code;
  let j = parse_json "version --json" json_text in
  List.iter
    (fun k -> ignore (member_exn "build info" k j))
    [ "tool"; "cache_key_format_version"; "options_fingerprint_version";
      "ocaml" ];
  let code, build_text = run_capture [ "--build-info" ] in
  Alcotest.(check int) "--build-info exits 0" 0 code;
  Alcotest.(check string) "--build-info = version --json"
    (String.trim json_text) (String.trim build_text)

(* `flight dump` writes a provenance-stamped bundle even without a
   crash; `flight show` renders it. *)
let test_flight_dump_show () =
  let out = tmp ".bundle.json" in
  let code, _ = run_capture [ "flight"; "dump"; "--out"; out ] in
  Alcotest.(check int) "flight dump exits 0" 0 code;
  let b = parse_file "flight bundle" out in
  (match member_exn "bundle" "bundle_format_version" b with
  | Obs.Json.Int _ -> ()
  | v -> Alcotest.failf "bundle_format_version = %s" (Obs.Json.to_string v));
  (match member_exn "bundle" "reason" b with
  | Obs.Json.String "manual dump" -> ()
  | v -> Alcotest.failf "reason = %s" (Obs.Json.to_string v));
  ignore
    (member_exn "bundle provenance" "build"
       (member_exn "bundle" "provenance" b));
  (match member_exn "bundle" "metrics" b with
  | Obs.Json.Obj _ -> ()
  | _ -> Alcotest.fail "metrics snapshot missing");
  let code, text = run_capture [ "flight"; "show"; out ] in
  Alcotest.(check int) "flight show exits 0" 0 code;
  Alcotest.(check bool) "show renders the reason" true
    (contains ~sub:"reason:  manual dump" text);
  Alcotest.(check bool) "show renders the provenance" true
    (contains ~sub:"provenance:" text);
  Sys.remove out

(* A fatal diagnostic with the recorder armed (CFDC_FLIGHT=1) must dump
   a post-mortem bundle into CFDC_CRASH_DIR carrying the failure's
   reason and the build provenance, and say where it wrote it. *)
let test_crash_report_on_fatal () =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let env =
    "CFDC_FLIGHT=1 CFDC_CRASH_DIR=" ^ Filename.quote dir
  in
  let code, text =
    run_capture_env env
      [ "memprof"; kernel "mass.cfd"; "--sim-elements"; "2"; "--strategy";
        "shard" ]
  in
  Alcotest.(check bool) "fatal path exits non-zero" true (code <> 0);
  Alcotest.(check bool) "stderr names the crash report" true
    (contains ~sub:"crash report:" text);
  let bundles =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
  in
  Alcotest.(check int) "exactly one bundle written" 1 (List.length bundles);
  let b = parse_file "crash bundle" (Filename.concat dir (List.hd bundles)) in
  (match member_exn "crash bundle" "reason" b with
  | Obs.Json.String r ->
      Alcotest.(check bool) "reason names the failing strategy" true
        (contains ~sub:"round-scheduled" r)
  | v -> Alcotest.failf "reason = %s" (Obs.Json.to_string v));
  ignore
    (member_exn "crash provenance" "build"
       (member_exn "crash bundle" "provenance" b));
  match member_exn "crash bundle" "entries" b with
  | Obs.Json.List _ -> ()
  | _ -> Alcotest.fail "entries missing from the bundle"

(* --log writes one JSON object per line; --log-level debug widens the
   threshold so the sink actually sees events. *)
let test_log_sink_jsonl () =
  let log = tmp ".log.jsonl" in
  let code =
    run [ "check"; kernel "mass.cfd"; "--log"; log; "--log-level"; "debug" ]
  in
  Alcotest.(check int) "check --log exits 0" 0 code;
  let ic = open_in log in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Alcotest.(check bool)
    "a debug-level check run produces log events" true
    (List.length !lines > 0);
  List.iter
    (fun line ->
      let j = parse_json "log line" line in
      List.iter
        (fun k -> ignore (member_exn "log line" k j))
        [ "ts"; "level"; "scope"; "msg"; "tid"; "span" ])
    !lines;
  Sys.remove log

let test_bad_flags_rejected () =
  List.iter
    (fun (what, args) ->
      Alcotest.(check bool)
        (what ^ " exits non-zero") true
        (run args <> 0))
    [
      ("unknown flag", [ "memprof"; kernel "mass.cfd"; "--no-such-flag" ]);
      ("missing source", [ "memprof"; "/nonexistent/kernel.cfd" ]);
      ("no source argument", [ "memprof" ]);
      ("profile unknown flag", [ "profile"; kernel "mass.cfd"; "--bogus" ]);
      ( "profile unknown strategy",
        [ "profile"; kernel "mass.cfd"; "--strategy"; "bogus" ] );
      ( "memprof unknown strategy",
        [ "memprof"; kernel "mass.cfd"; "--strategy"; "bogus" ] );
      ( "profile missing source",
        [ "profile"; "/nonexistent/kernel.cfd"; "--sim-elements"; "2" ] );
      ("unknown subcommand", [ "memprofile" ]);
      ("unknown cache action", [ "cache"; "bogus" ]);
      ("cache without action", [ "cache" ]);
    ]

(* An out-of-range shape or count is a one-line user error: exit 1 with
   a [cfdc:] message and nothing on stdout, never a partial report, a
   drift report or an uncaught exception. *)
let rejects_shape args () =
  let code, stdout, stderr = run_split args in
  Alcotest.(check int) "exits 1" 1 code;
  Alcotest.(check string) "stdout is empty" "" stdout;
  Alcotest.(check bool)
    (Printf.sprintf "stderr starts with cfdc: (%S)" stderr)
    true
    (String.length stderr >= 5 && String.sub stderr 0 5 = "cfdc:");
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "no %S in the output" needle)
        false
        (contains ~sub:needle stdout || contains ~sub:needle stderr))
    [ "timeline-drift"; "Fatal error" ]

let timeline = [ "timeline"; kernel "inverse_helmholtz.cfd" ]

(* [emit] must refuse before it creates its output directory. *)
let emit_rejects_zero_elements () =
  let dir = tmp_dir () in
  rejects_shape [ "emit"; kernel "mass.cfd"; "--elements=0"; "-o"; dir ] ();
  Alcotest.(check bool) "output directory not created" false
    (Sys.file_exists dir)

(* Each subcommand that reads [flag] rejects [value] at the boundary. *)
let count_cases flag value subcommands =
  List.map
    (fun (sub, extra) ->
      let args = (sub :: kernel "mass.cfd" :: extra) @ [ flag ^ "=" ^ value ] in
      Alcotest.test_case
        (Printf.sprintf "%s %s=%s is a cfdc: error"
           (String.concat " " (sub :: extra)) flag value)
        `Quick (rejects_shape args))
    subcommands

(* A kernel the front end rejects is a one-line user error for
   [cfdc explore] too: exit 1 with the checker's [cfdc:] message, never
   an uncaught exception or a sweep of infeasible configurations. *)
let explore_rejects ~source ~message () =
  let file = tmp ".cfd" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> output_string oc source);
      let code, text = run_capture [ "explore"; file; "--jobs"; "1" ] in
      Alcotest.(check int) "exits 1" 1 code;
      Alcotest.(check bool)
        (Printf.sprintf "prints %S (%S)" message text)
        true
        (contains ~sub:("cfdc: " ^ message) text);
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "no %S in the output" needle)
            false (contains ~sub:needle text))
        [ "Fatal error"; "infeasible" ])

let bad_token_kernel =
  "var input u : [3 3 3]\nvar output w : [3 3 3]\nw = u $ u\n"

let zero_extent_kernel =
  "var input u : [0 3 3]\nvar output w : [0 3 3]\nw = u * u\n"

let () =
  Alcotest.run "cfdc-cli"
    [
      ( "cli",
        [
          Alcotest.test_case "memprof writes well-formed artifacts" `Quick
            test_memprof_ok;
          Alcotest.test_case "memprof reproduces 31 -> 18 BRAM18" `Quick
            test_memprof_reproduces_paper;
          Alcotest.test_case "profile writes well-formed artifacts" `Quick
            test_profile_ok;
          Alcotest.test_case "profile accepts both strategies" `Quick
            test_profile_strategy_flags;
          Alcotest.test_case "memprof refuses the sharded strategy" `Quick
            test_memprof_rejects_sharded;
          Alcotest.test_case "bad flags and missing files exit non-zero"
            `Quick test_bad_flags_rejected;
          Alcotest.test_case "timeline --elements=0 is a cfdc: error" `Quick
            (rejects_shape (timeline @ [ "--elements=0" ]));
          Alcotest.test_case "timeline --elements=-5 is a cfdc: error" `Quick
            (rejects_shape (timeline @ [ "--elements=-5" ]));
          Alcotest.test_case "timeline -k 0 is a cfdc: error" `Quick
            (rejects_shape (timeline @ [ "-k"; "0" ]));
          Alcotest.test_case "emit --elements=0 is a cfdc: error" `Quick
            emit_rejects_zero_elements;
        ]
        @ count_cases "--elements" "0"
            [ ("explore", []); ("memprof", []); ("system", []); ("cost", []);
              ("profile", []) ]
        @ count_cases "--sim-elements" "0"
            [ ("memprof", []); ("cost", [ "--diff" ]); ("profile", []) ]
        @ count_cases "--jobs" "-1" [ ("explore", []); ("profile", []) ]
        @ [
          Alcotest.test_case "explore on a bad token is a cfdc: error" `Quick
            (explore_rejects ~source:bad_token_kernel ~message:"lexical error");
          Alcotest.test_case "explore on a zero extent is a cfdc: error"
            `Quick
            (explore_rejects ~source:zero_extent_kernel
               ~message:"tensor u has a non-positive extent");
        ] );
      ( "cache",
        [
          Alcotest.test_case "warm cached check is byte-identical" `Quick
            test_cache_warm_identical;
          Alcotest.test_case "corrupt entry recomputes with a warning" `Quick
            test_cache_corrupt_recovers;
          Alcotest.test_case "CFDC_CACHE_DIR enables the cache" `Quick
            test_cache_env_dir;
          Alcotest.test_case "cache stat, gc and clear" `Quick
            test_cache_stat_gc_clear;
        ] );
      ( "flight",
        [
          Alcotest.test_case "version and --build-info report the build"
            `Quick test_version_build_info;
          Alcotest.test_case "flight dump and show round-trip a bundle"
            `Quick test_flight_dump_show;
          Alcotest.test_case "fatal diagnostic writes a crash report" `Quick
            test_crash_report_on_fatal;
          Alcotest.test_case "--log sink is well-formed JSONL" `Quick
            test_log_sink_jsonl;
        ] );
    ]
