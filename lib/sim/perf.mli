(** Performance model of the complete system: the host main loop of
    Section V-B priced by {!Analysis.Cost.cycles} (controller rounds,
    AXI transfers, optional double buffering), plus the analytical ARM
    baseline. Regenerates the measurements behind Figures 9 and 10. *)

type hw_result = {
  k : int;
  m : int;
  exec_cycles : int;  (** accelerator-only cycles for the whole run *)
  transfer_cycles : int;
  total_cycles : int;
  exec_seconds : float;
  total_seconds : float;
}

type sw_result = {
  flops_per_element : int;
  cpu_cycles : float;
  seconds : float;
}

val board_model : Fpga_platform.Board.t -> Analysis.Cost.board_model
(** The board's clock and AXI width with the calibrated {!Constants}. *)

val shape_of : Sysgen.System.t -> Analysis.Cost.shape
(** The cycle model's input for a built system: its element count,
    Eq.-(3) solution, kernel latency and per-element DMA volumes.
    @raise Analysis.Cost.Invalid_shape on an out-of-range shape (e.g.
    a system built for [n_elements < 1]). *)

val overlap_requirement : k:int -> m:int -> string option
(** [None] when the double-buffering requirement [m >= 2k] holds,
    otherwise [Some message] naming the requirement and the offending
    values. CLI and explore paths use this to turn an infeasible
    overlapped run into a stable [sim-overlap-infeasible] diagnostic
    instead of an exception. *)

val run_hw :
  system:Sysgen.System.t -> board:Fpga_platform.Board.t -> hw_result
(** The host main loop, [ceil(N_e / m)] iterations of (input transfers
    for m elements; m/k controller rounds of latency + handshake; output
    transfers), priced by [Analysis.Cost.cycles ~overlap:false]. No
    transfer/compute overlap — reproducing the paper's evaluated
    implementation, and the reason its k<m batching experiments showed
    no improvement.

    When {!Obs.Timeline.enabled} the run also emits every phase
    instance (per-block dma-in / dma-out on the ["host"] and ["dma"]
    tracks, controller rounds on ["ctrl"], per-kernel executions on
    ["acc<i>"]) on the modeled cycle clock; the disabled path is a
    single branch — bit-identical results, no allocation.
    @raise Analysis.Cost.Invalid_shape (see {!shape_of}). *)

val run_hw_overlapped :
  system:Sysgen.System.t -> board:Fpga_platform.Board.t -> hw_result
(** Models the double-buffered data transfers the paper lists as future
    work: requires [m >= 2k] (half the PLM sets hold the in-flight block
    while the other half is drained/filled) and pipelines each block's
    transfers against the previous block's compute rounds; steady-state
    block time is [max(transfers, compute)]
    ([Analysis.Cost.cycles ~overlap:true]). Emits fill / steady / drain
    timeline phases under the same gate as {!run_hw}.
    @raise Invalid_argument when [m < 2k] (see {!overlap_requirement}). *)

val run_sw :
  variant:[ `Reference | `Hls_code ] ->
  flops_per_element:int ->
  n_elements:int ->
  board:Fpga_platform.Board.t ->
  sw_result
(** Analytical ARM A53 execution of the reference (or HLS-tuned) code. *)

val accel_speedup : baseline:hw_result -> hw_result -> float
(** Accelerator-only speedup (Figure 9, left series). *)

val total_speedup : baseline:hw_result -> hw_result -> float
(** End-to-end speedup including transfers (Figure 9, right series). *)

val speedup_vs_sw : sw:sw_result -> hw_result -> float
(** Figure 10. *)

val pp_hw : Format.formatter -> hw_result -> unit
