(** The shared instrumentation gate.

    Span producers ({!Trace.with_span}, the pool's per-task guard) must
    record whenever {e either} file tracing or the flight recorder is
    enabled, and must cost one atomic-load branch when both are off.
    This module is that single word: one bit per consumer, [any () =
    false] is the producers' fast path. The device-cycle timeline has a
    bit here too, but [any] excludes it: capturing a cycle timeline does
    not record host spans. Set through {!Trace.set_enabled} /
    {!Flight.set_enabled} / {!Timeline.set_enabled}, never directly. *)

val trace_bit : int
val flight_bit : int
val timeline_bit : int

val set : int -> bool -> unit
(** [set bit on] atomically sets or clears [bit] (CAS loop). *)

val trace_on : unit -> bool
val flight_on : unit -> bool
val timeline_on : unit -> bool

val any : unit -> bool
(** [true] when file tracing or the flight recorder wants span events —
    the span producers' guard. The timeline bit does not count. *)
