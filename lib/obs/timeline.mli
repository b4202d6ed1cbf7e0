(** Device-cycle timeline: event store on the performance model's cycle
    clock.

    Where {!Trace} records host wall-time spans, this store records
    what the {e simulated accelerator} does cycle by cycle: phases
    (complete intervals with a start cycle and a duration, on a named
    track — one track per accelerator, DMA engine, controller or PLM
    buffer) and counter samples (per-buffer port occupancy). Producers
    ([Sim.Perf]) emit behind a single branch on {!enabled}, so the
    disabled path is one atomic load — bit-identical results and zero
    allocation, same contract as the flight recorder.

    The gate is {!Gate}'s timeline bit, and [Gate.any] excludes it:
    [Gate.any] turns on the host-flow span producers, and capturing a
    cycle timeline must not also start recording host spans.

    Track naming (see docs/OBSERVABILITY.md for the catalogue):
    ["host"] the critical path (its durations sum exactly to
    [hw_result.total_cycles]), ["dma"] the transfer engine, ["ctrl"]
    the AXI controller rounds, ["acc<i>"] each accelerator instance,
    ["plm:<unit>"] the PLM port-occupancy counter tracks. *)

type phase = {
  ph_track : string;
  ph_name : string;
  ph_start : int;  (** cycle the phase begins *)
  ph_dur : int;  (** duration in cycles *)
  ph_attrs : (string * string) list;
}

type sample = {
  sm_track : string;
  sm_series : string;
  sm_cycle : int;
  sm_value : int;
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Drop every recorded phase and sample (the flag is unchanged). *)

val phase :
  track:string ->
  name:string ->
  start:int ->
  dur:int ->
  ?attrs:(string * string) list ->
  unit ->
  unit
(** Record a complete phase. No-op (one branch, no allocation) when
    disabled. *)

val sample : track:string -> series:string -> cycle:int -> value:int -> unit
(** Record a counter sample. No-op when disabled. *)

type capture = { cap_phases : phase list; cap_samples : sample list }
(** An immutable snapshot of the store, in emission order. *)

val capture : unit -> capture

val prefixed : string -> capture -> capture
(** Rename every track to ["<prefix>/<track>"] — used to merge multiple
    legs (plain vs overlapped) into one trace without tid collisions. *)

val merge : capture list -> capture

val tracks : capture -> string list
(** Distinct track names, sorted. *)

val busy : capture -> string -> int
(** Sum of phase durations on one track — the track's busy cycles. *)

val series_stats : capture -> (string * string * int * float) list
(** Per counter series: [(track, series, peak, mean)], sorted by
    (track, series). *)

val chrome_events : capture -> Json.t list
(** Chrome trace events: [ph:"M"] thread-name metadata (virtual tids
    assigned over the sorted track list, so the output is
    byte-deterministic), [ph:"X"] complete phases and [ph:"C"] counter
    samples, with the cycle count as the [ts] domain. *)

val chrome_trace : capture -> Json.t
(** [{"traceEvents": ..., "displayTimeUnit": "ns"}] — loadable in
    Perfetto; one "ns" reads as one cycle. *)
