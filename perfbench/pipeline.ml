(* The traced decomposition of the user path: [Compile.compile] replayed
   stage by stage and [Compile.check] replayed rule family by rule
   family, each call wrapped in a benchmark span. The decomposition is
   only trusted after [same_compile] / [same_verdict] confirm it produced
   exactly what the user path produced, so per-layer numbers always
   describe the program the end-to-end numbers measured. *)

open Cfd_core
module V = Analysis.Verify
module D = Analysis.Diagnostic

let span = Spans.with_

exception Failed of string

let parse src =
  match Cfdlang.Parser.parse src with
  | ast -> ast
  | exception Cfdlang.Parser.Error (_, msg) -> raise (Failed ("parse: " ^ msg))
  | exception Cfdlang.Lexer.Error (_, msg) -> raise (Failed ("lex: " ^ msg))

let typecheck ast =
  match Cfdlang.Check.check ast with
  | Ok c -> c
  | Error e -> raise (Failed (Format.asprintf "%a" Cfdlang.Check.pp_error e))

(* The stages of [Compile.compile_stages], in order, over a checked
   program. *)
let back ~(options : Compile.options) (checked : Cfdlang.Check.checked) :
    Compile.result =
  let tir =
    span "compile.tir" (fun () ->
        Tir.Transform.optimize ~factorize_contractions:options.factorize
          (Tir.Builder.build ~name:options.kernel_name checked))
  in
  let program =
    span "compile.lower" (fun () ->
        let p = Lower.Flow.of_kernel ~name:options.kernel_name tir in
        Lower.Flow.validate p;
        p)
  in
  let schedule =
    span "compile.reschedule" (fun () ->
        Lower.Reschedule.compute
          ~options:
            {
              Lower.Reschedule.default with
              Lower.Reschedule.fuse_pointwise = options.fuse_pointwise;
            }
          program)
  in
  let liveness =
    span "compile.liveness" (fun () -> Liveness.Analysis.analyze program schedule)
  in
  let memory =
    span "compile.mnemosyne" (fun () ->
        Mnemosyne.Memgen.generate
          ~scope:
            (if options.decoupled then Mnemosyne.Memgen.All
             else Mnemosyne.Memgen.Interface_only)
          ~unroll:(Option.value ~default:1 options.unroll)
          ~mode:
            (if options.sharing then Mnemosyne.Memgen.Sharing
             else Mnemosyne.Memgen.No_sharing)
          program schedule)
  in
  let proc =
    span "compile.codegen" (fun () ->
        Lower.Codegen.generate
          ~options:
            {
              Lower.Codegen.exported_temps = options.decoupled;
              pipeline_ii = options.pipeline_ii;
              unroll = options.unroll;
            }
          ~storage:memory.Mnemosyne.Memgen.storage program schedule)
  in
  let proc = span "compile.scalarize" (fun () -> Loopir.Scalarize.optimize proc) in
  let header =
    Printf.sprintf
      "Generated by cfd_accel from CFDlang kernel '%s'\n\
       factorize=%b decoupled=%b sharing=%b"
      options.kernel_name options.factorize options.decoupled options.sharing
  in
  let c_source = span "compile.emit" (fun () -> Loopir.Emit.c_source ~header proc) in
  let hls = span "compile.hls" (fun () -> Hls.Model.analyze proc) in
  let mnemosyne_metadata =
    span "compile.metadata" (fun () -> Mnemosyne.Memgen.metadata program schedule)
  in
  {
    Compile.opts = options;
    checked;
    tir;
    program;
    schedule;
    liveness;
    memory;
    proc;
    c_source;
    hls;
    mnemosyne_metadata;
  }

let compile_source ~options src =
  let checked = span "cfdlang.front" (fun () -> typecheck (parse src)) in
  back ~options checked

let compile_ast ~options ast =
  let checked = span "cfdlang.front" (fun () -> typecheck ast) in
  back ~options checked

(* [Verify.all], one family per span, in its order. *)
let verify_families ?unroll ?memory ?proc ~program ~schedule () =
  let structural =
    span "verify.structure" (fun () ->
        match Lower.Schedule.validate program schedule with
        | () -> []
        | exception (Lower.Schedule.Error msg | Lower.Flow.Error msg) ->
            [ D.error ~rule:"schedule-structure" ~subject:program.Lower.Flow.prog_name msg ])
  in
  let bounds =
    match proc with
    | Some p -> span "verify.bounds" (fun () -> V.bounds p)
    | None -> []
  in
  if structural <> [] then structural @ bounds
  else
    let dep = span "verify.dep" (fun () -> V.schedule_deps program schedule) in
    let ubd = span "verify.use-before-def" (fun () -> V.use_before_def program schedule) in
    let sharing =
      match memory with
      | Some m -> span "verify.sharing" (fun () -> V.sharing ?unroll program schedule m)
      | None -> []
    in
    let cost =
      match (memory, proc) with
      | Some m, Some p -> span "verify.cost" (fun () -> V.cost ?unroll program m p)
      | _ -> []
    in
    dep @ ubd @ bounds @ sharing @ cost

(* [Compile.check] without a cache: frontend warnings, then every
   family. *)
let check (r : Compile.result) =
  let front =
    List.map
      (fun w -> D.warning ~rule:"front-unused" ~subject:r.Compile.opts.kernel_name w)
      (Cfdlang.Check.warnings r.Compile.checked)
  in
  front
  @ verify_families
      ~unroll:(Option.value ~default:1 r.Compile.opts.unroll)
      ~memory:r.Compile.memory ~proc:r.Compile.proc ~program:r.Compile.program
      ~schedule:r.Compile.schedule ()

let render = List.map (Format.asprintf "%a" D.pp)

let same_compile ~what (user : Compile.result) (mine : Compile.result) =
  if user.Compile.c_source <> mine.Compile.c_source then
    raise (Failed (what ^ ": stage-by-stage compile emitted different C source"));
  if user.Compile.proc <> mine.Compile.proc then
    raise (Failed (what ^ ": stage-by-stage compile produced a different proc"))

let same_verdict ~what user mine =
  if render user <> render mine then
    raise (Failed (what ^ ": family-by-family verify disagrees with the user path"))

(* The per-layer metrics of the spans above: [ms name] turns a span
   name's total into milliseconds per op of the caller's choosing, and
   [share_of] is the seconds the use-before-def share is taken of. *)
let layer_metrics ~ms ~share_of =
  let m = Outcome.metric in
  (m "cfdlang.front_ms" "ms" (ms "cfdlang.front")
   :: List.map
        (fun s -> m ("compile." ^ s ^ "_ms") "ms" (ms ("compile." ^ s)))
        [ "tir"; "lower"; "reschedule"; "liveness"; "mnemosyne"; "codegen"; "scalarize"; "emit"; "hls"; "metadata" ])
  @ List.map
      (fun (metric, span) -> m ("verify." ^ metric ^ "_ms") "ms" (ms ("verify." ^ span)))
      [ ("dep", "dep"); ("use_before_def", "use-before-def"); ("bounds", "bounds"); ("sharing", "sharing"); ("cost", "cost") ]
  @ [ m "verify.use_before_def.share" "ratio" (Spans.total "verify.use-before-def" /. share_of) ]

(* The polyhedral layer's exact program counters: Fourier-Motzkin
   eliminations, emptiness tests, memo hits and memo misses. *)
let poly_counts () =
  [|
    Outcome.counter_value "poly.fm.eliminations";
    Outcome.counter_value "poly.emptiness.tests";
    Poly.Stats.total_hits ();
    Poly.Stats.total_misses ();
  |]

(* Metrics from [poly_counts] differences [d] over [ops] ops. *)
let poly_metrics ~ops d =
  let per x = float_of_int x /. float_of_int ops in
  [
    Outcome.metric "poly.fm.eliminations" "count" (per d.(0));
    Outcome.metric "poly.emptiness.tests" "count" (per d.(1));
    Outcome.metric "poly.memo.hit_ratio" "ratio" (float_of_int d.(2) /. float_of_int (max 1 (d.(2) + d.(3))));
  ]
