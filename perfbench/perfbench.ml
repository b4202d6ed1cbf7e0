(* The repository benchmark: drives the library entry points the cfdc
   subcommands call, in-process, from one process using at most one
   domain per core.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 every entry point runs with all observability gates
   off and the run reports the end-to-end metrics declared in
   BENCHMARK.json. With --trace 1 a separate run replays each user path
   layer by layer under the benchmark's own spans ({!Spans}), checks
   that the replay produced what the user path produced, reports the
   per-layer metrics and writes its spans to .perfbench/. The last line
   of standard output is the result object; the line before it records
   the provenance manifest, host cores, jobs, seed and every timing with
   its median, tail and sample count. Run from the repository root. *)

let usage = "usage: perfbench --workload check-mix|dse-sweep|sim-throughput --seed N --seconds S --trace 0|1"

(* Set-up is timed [setup_reps] times and reported as the median. The
   first set-up, before the run, provides the state the run uses; the
   others are timed at op boundaries spread evenly over the run (the
   workload calls [tick] between ops), so set-up time is sampled across
   the run's whole window like every op, not only its first moments. *)
let setup_reps = 6

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args argv =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((flag, value) :: acc) rest
    | arg :: _ -> failwith ("unexpected argument " ^ arg)
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get flag =
    match List.assoc_opt flag kv with Some v -> v | None -> failwith ("missing " ^ flag)
  in
  List.iter
    (fun (flag, _) ->
      if not (List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace" ]) then
        failwith ("unknown flag " ^ flag))
    kv;
  let int flag =
    match int_of_string_opt (get flag) with Some n -> n | None -> failwith (flag ^ " wants an integer")
  in
  let seconds = int "--seconds" in
  if seconds < 1 then failwith "--seconds must be at least 1";
  {
    workload = get "--workload";
    seed = int "--seed";
    seconds = float_of_int seconds;
    trace = (match get "--trace" with "0" -> false | "1" -> true | _ -> failwith "--trace wants 0 or 1");
  }

(* The metric names and units BENCHMARK.json declares: the result line
   carries exactly these. *)
let declared section =
  let fail msg = failwith ("BENCHMARK.json: " ^ msg) in
  match Obs.Json.of_file "BENCHMARK.json" with
  | Error e -> fail e
  | Ok json -> (
      match Obs.Json.member section json with
      | Some (Obs.Json.List l) ->
          List.map
            (fun m ->
              match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
              | Some (Obs.Json.String n), Some (Obs.Json.String u) -> (n, u)
              | _ -> fail ("malformed entry in " ^ section))
            l
      | _ -> fail ("no " ^ section))

(* Each workload as (set-up, untraced run, traced run). *)
let workload ~seed ~jobs name =
  let pack setup run traced () =
    let t = setup () in
    ((fun ~seconds ~tick -> run t ~seconds ~tick), fun ~seconds -> traced t ~seconds)
  in
  match name with
  | "check-mix" -> pack (fun () -> Check_mix.setup ~seed) Check_mix.run Check_mix.run_traced
  | "dse-sweep" -> pack (fun () -> Dse_sweep.setup ~seed ~jobs) Dse_sweep.run Dse_sweep.run_traced
  | "sim-throughput" ->
      pack (fun () -> Sim_throughput.setup ~seed ~jobs) Sim_throughput.run Sim_throughput.run_traced
  | other -> failwith ("unknown workload " ^ other)

(* The result's metrics, in declaration order. Undeclared metrics and unit
   disagreements are benchmark bugs. A declared per-layer metric the
   workload does not exercise reads 0; an end-to-end one must be
   measured. *)
let result_metrics ~section ~zero_fill (measured : Outcome.metric list) =
  let decl = declared section in
  List.iter
    (fun (m : Outcome.metric) ->
      match List.assoc_opt m.Outcome.name decl with
      | None -> failwith (m.Outcome.name ^ " is not declared in " ^ section)
      | Some u when u <> m.Outcome.unit_ -> failwith (m.Outcome.name ^ ": unit " ^ m.Outcome.unit_ ^ " vs " ^ u)
      | Some _ -> ())
    measured;
  List.map
    (fun (name, unit_) ->
      let value =
        match List.find_opt (fun (m : Outcome.metric) -> m.Outcome.name = name) measured with
        | Some m -> m.Outcome.value
        | None when zero_fill -> 0.0
        | None -> failwith (name ^ " was not measured")
      in
      if not (Float.is_finite value) then failwith (name ^ " is not finite");
      (name, Obs.Json.Obj [ ("value", Obs.Json.Float value); ("unit", Obs.Json.String unit_) ]))
    decl

let main () =
  let a = parse_args Sys.argv in
  Guards.environment ();
  Guards.gates_off ();
  let host_cores = Domain.recommended_domain_count () in
  let jobs = host_cores in
  let make = workload ~seed:a.seed ~jobs a.workload in
  let timed_setup () =
    Outcome.cold_start ();
    Outcome.time make
  in
  let (run, traced), first = timed_setup () in
  let setup_s = ref [ first ] in
  let resample () = setup_s := snd (timed_setup ()) :: !setup_s in
  let out =
    if a.trace then traced ~seconds:a.seconds
    else begin
      let t0 = Unix.gettimeofday () in
      let tick () =
        let n = List.length !setup_s in
        if n < setup_reps
           && Unix.gettimeofday () -. t0 >= a.seconds *. float_of_int n /. float_of_int setup_reps
        then resample ()
      in
      let o = run ~seconds:a.seconds ~tick in
      while List.length !setup_s < setup_reps do
        resample ()
      done;
      Guards.gates_off ();
      o
    end
  in
  let setup_s = !setup_s in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let metrics =
    if a.trace then result_metrics ~section:"per_layer" ~zero_fill:true out.Outcome.metrics
    else
      result_metrics ~section:"end_to_end" ~zero_fill:false
        (out.Outcome.metrics
        @ [ Outcome.metric "setup_s" "s" (Stats.median setup_s); Outcome.metric "heap_peak_mb" "MB" heap_mb ])
  in
  let spans_file =
    if a.trace then begin
      Work.mkdir_p ".perfbench";
      let file = Filename.concat ".perfbench" (Printf.sprintf "spans-%s-seed%d.json" a.workload a.seed) in
      Obs.Json.to_file file (Spans.to_json ());
      [ ("spans_file", Obs.Json.String file) ]
    end
    else []
  in
  Work.remove_dir Work.root;
  let open Obs.Json in
  print_endline
    "perfbench: the accelerator model is unvalidated against hardware; modelled seconds are \
     simulated time, every other time is host time";
  print_endline
    (to_string
       (Obj
          ([
             ("workload", String a.workload);
             ("seed", Int a.seed);
             ("trace", Bool a.trace);
             ("jobs", Int jobs);
             ("host_cores", Int host_cores);
             ("manifest", Cfd_core.Version.manifest ());
             ("setup_s", Outcome.timing ~unit_:"s" setup_s);
             ("heap_peak_mb", Float heap_mb);
             ( "error_rate",
               Float (float_of_int out.Outcome.failed /. float_of_int (max 1 out.Outcome.attempted)) );
           ]
          @ out.Outcome.details @ spans_file)));
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (out.Outcome.failed = 0));
            ("attempted", Int out.Outcome.attempted);
            ("failed", Int out.Outcome.failed);
            ("metrics", Obj metrics);
          ]))

let () =
  match main () with
  | () -> ()
  | exception Guards.Refused msg ->
      prerr_endline ("perfbench: refused: " ^ msg);
      exit 3
  | exception Failure msg ->
      prerr_endline ("perfbench: " ^ msg);
      prerr_endline usage;
      exit 2
