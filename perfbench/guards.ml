(* Environment guards: the benchmark measures the default user path, so
   any setting that switches the program onto another path fails the
   run instead of producing numbers about it. *)

exception Refused of string

let refuse fmt = Printf.ksprintf (fun m -> raise (Refused m)) fmt

(* Before anything runs. [CFDC_CACHE_DIR] needs no guard: the benchmark
   opens its own stores and never reads it. *)
let environment () =
  match Sys.getenv_opt "CFD_EXEC_DEBUG" with
  | Some v -> refuse "CFD_EXEC_DEBUG is set (%S): the engine would run in debug mode" v
  | None -> ()

(* Around every untraced measurement: no span, flight or device-timeline
   recording may be on. *)
let gates_off () =
  if Obs.Trace.enabled () then refuse "span tracing is on";
  if Obs.Flight.enabled () then refuse "the flight recorder is on";
  if Obs.Timeline.enabled () then refuse "the device timeline is on"

(* The compiled engine must run at the mode users get: unchecked, as
   licensed by the verifier's bounds proof. *)
let unchecked_engine proc =
  match Analysis.Verify.execution_mode proc with
  | Loopir.Compiled.Unchecked -> ()
  | Loopir.Compiled.Checked -> refuse "the execution mode is checked, not unchecked"
  | Loopir.Compiled.Debug -> refuse "the execution mode is debug, not unchecked"
