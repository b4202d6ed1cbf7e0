(* One atomic word shared by every instrumentation producer so the
   disabled hot path — every consumer off — stays exactly one atomic
   load plus a compare-to-zero, no matter how many sinks exist. Bit 0 is
   file tracing (Trace), bit 1 the flight recorder (Flight), bit 2 the
   device-cycle timeline (Timeline). Host span producers test [any],
   which masks to the first two: turning on the cycle timeline must not
   start recording host spans. *)

let trace_bit = 1
let flight_bit = 2
let timeline_bit = 4
let span_bits = trace_bit lor flight_bit
let flags = Atomic.make 0

let set bit on =
  let rec go () =
    let cur = Atomic.get flags in
    let next = if on then cur lor bit else cur land lnot bit in
    if not (Atomic.compare_and_set flags cur next) then go ()
  in
  go ()

let trace_on () = Atomic.get flags land trace_bit <> 0
let flight_on () = Atomic.get flags land flight_bit <> 0
let timeline_on () = Atomic.get flags land timeline_bit <> 0
let any () = Atomic.get flags land span_bits <> 0
