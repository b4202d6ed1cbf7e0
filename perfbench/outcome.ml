(* What one run of a workload reports. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  attempted : int;
  failed : int;
  metrics : metric list;
  details : (string * Obs.Json.t) list;
      (** everything else worth recording: the per-workload metric names
          with their medians, tails and sample counts *)
}

let metric name unit_ value = { name; value; unit_ }

(* The tally of a run's ops: attempts, failures, and the first few
   failure messages (recorded in the details). *)
type failures = { mutable attempted : int; mutable failed : int; mutable messages : string list }

let failures () = { attempted = 0; failed = 0; messages = [] }

let attempt (f : failures) what op =
  f.attempted <- f.attempted + 1;
  match op () with
  | Ok () -> ()
  | Error msg ->
      f.failed <- f.failed + 1;
      if List.length f.messages < 5 then f.messages <- (what ^ ": " ^ msg) :: f.messages
  | exception e ->
      f.failed <- f.failed + 1;
      if List.length f.messages < 5 then
        f.messages <- (what ^ ": raised " ^ Printexc.to_string e) :: f.messages

(* The outcome of a run whose ops were counted in [f]; failure messages
   join the details. *)
let finish (f : failures) ~metrics ~details =
  {
    attempted = f.attempted;
    failed = f.failed;
    metrics;
    details =
      details @ [ ("failures", Obs.Json.List (List.rev_map (fun m -> Obs.Json.String m) f.messages)) ];
  }

let counter_value name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

(* Every CLI invocation starts in a fresh process: an empty polyhedral
   memo and a fresh heap. In-process, each measured op starts from the
   same state by clearing the memo and compacting the heap, so no op
   pays for the garbage of the one before it. *)
let cold_start () =
  Poly.Memo.clear_all ();
  Gc.compact ()

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* A timing summary in the form every result records: median, the
   highest tail percentile with ten samples beyond it, sample count. *)
let timing ~unit_ samples =
  let open Obs.Json in
  match samples with
  | [] -> Obj [ ("samples", Int 0) ]
  | _ ->
      Obj
        ([ ("unit", String unit_); ("p50", Float (Stats.median samples)); ("samples", Int (List.length samples)) ]
        @
        match Stats.tail samples with
        | Some (label, v) -> [ (label, Float v) ]
        | None -> [])
