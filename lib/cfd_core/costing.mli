(** Orchestration of the static cost analyzer ({!Analysis.Cost}) over a
    compiled pipeline: prices the built system, runs the dynamic legs
    for the drift check, and renders the report — the engine behind
    [cfdc cost].

    [Analysis.Cost] itself is pure and knows nothing about [Sim] or
    [Sysgen]; this module is the one place that connects prediction to
    measurement:

    - the {e cycle estimate} is [Analysis.Cost.cycles] over
      [Sim.Perf.shape_of] — the very model [Sim.Perf.run_hw] runs on;
    - the {e observation} runs one recorded round-scheduled functional
      simulation and reads back the [exec.*]/[sim.*] counter deltas
      and the [Memprof.Record] snapshot;
    - {!Analysis.Cost.drift} then reports every mismatch as a
      [cost-drift-*] diagnostic. *)

type residents = (string * (string * Poly.Lex.interval option) list) list
(** Per storage buffer, the resident arrays with their live intervals
    (when the liveness analysis knows them). *)

type report = {
  kernel : string;
  cost : Analysis.Cost.t;
  buffer_residents : residents;
  shape : Analysis.Cost.shape option;  (** [None] when infeasible *)
  estimate : Analysis.Cost.cycle_estimate option;
  infeasible : string option;
  drift : Analysis.Diagnostic.t list option;  (** [Some] when the diff ran *)
  sim_elements : int option;  (** elements the drift simulation ran *)
}

val static : ?budget:int -> Compile.result -> Analysis.Cost.t
(** {!Analysis.Cost.analyze} at the result's compiled unroll factor. *)

val estimate :
  board:Fpga_platform.Board.t ->
  system:Sysgen.System.t ->
  Compile.result ->
  Analysis.Cost.t ->
  Analysis.Cost.cycle_estimate
(** The cycle estimate for one built system:
    [Analysis.Cost.cycles ~overlap:false] over [Sim.Perf.shape_of system],
    the same closed form [Sim.Perf.run_hw] reports. The system carries
    the kernel latency and DMA volumes, so the compile result and static
    record are not consulted.
    @raise Analysis.Cost.Invalid_shape on an out-of-range system. *)

val synthetic_inputs : Sysgen.System.t -> int -> (string * float array) list
(** Deterministic per-element inputs for every simulation leg of the
    flow: [synthetic_inputs system e] binds each per-element input array
    of [system] to finite values derived from [e]. Affine kernels have
    data-independent access patterns, so any finite values exercise the
    same accesses. *)

val recorded :
  ?jobs:int ->
  strategy:Sim.Functional.strategy ->
  system:Sysgen.System.t ->
  sim_n:int ->
  Compile.result ->
  Memprof.Record.snapshot
(** Run the functional simulation of [sim_n] elements on
    {!synthetic_inputs} with the PLM access recorder ({!Memprof.Record})
    enabled for exactly that run, and return the recorder's snapshot.
    The recorder is disabled again on every exit.
    @raise Sim.Functional.Error when the simulation fails, notably under
    the sharded strategy, whose timestamps the recorder cannot
    reconstruct. *)

val observe :
  ?sim_n:int -> system:Sysgen.System.t -> Compile.result -> Analysis.Cost.observed
(** Run the dynamic leg: one {!recorded} round-scheduled functional
    simulation of [sim_n] elements (default 4), read back as counter
    deltas and the recorder snapshot.
    @raise Sim.Functional.Error when the simulation fails. *)

val analyze :
  ?budget:int ->
  ?config:Sysgen.Replicate.config ->
  ?diff:bool ->
  ?sim_n:int ->
  ?cache:Cache.Store.t ->
  n_elements:int ->
  Compile.result ->
  report
(** The full report: static cost, cycle estimate for the system solved
    at [n_elements] (infeasible boards degrade to a static-only
    report), and — with [diff] (default false) — the drift check
    against the observability stack. With [cache], the static cost
    record is looked up under the result's [Compile.cache_key]
    (extended with [budget]); the dynamic legs always run live. *)

val to_json : report -> Obs.Json.t
val pp_report : Format.formatter -> report -> unit
