type hw_result = {
  k : int;
  m : int;
  exec_cycles : int;
  transfer_cycles : int;
  total_cycles : int;
  exec_seconds : float;
  total_seconds : float;
}

type sw_result = { flops_per_element : int; cpu_cycles : float; seconds : float }

module Cost = Analysis.Cost

let board_model (board : Fpga_platform.Board.t) =
  {
    Cost.bm_fmax_mhz = board.Fpga_platform.Board.fmax_mhz;
    bm_axi_bytes_per_cycle = board.Fpga_platform.Board.axi_bytes_per_cycle;
    bm_axi_efficiency = Constants.axi_efficiency;
    bm_handshake_cycles = Constants.controller_handshake_cycles;
  }

let shape_of (sys : Sysgen.System.t) =
  let host = sys.Sysgen.System.host in
  Cost.shape ~n_elements:host.Sysgen.System.n_elements
    ~k:sys.Sysgen.System.solution.Sysgen.Replicate.k
    ~m:sys.Sysgen.System.solution.Sysgen.Replicate.m
    ~batch:host.Sysgen.System.rounds_per_block
    ~latency:sys.Sysgen.System.kernel.Hls.Model.latency_cycles
    ~bytes_in:host.Sysgen.System.bytes_in_per_element
    ~bytes_out:host.Sysgen.System.bytes_out_per_element

let c_perf_runs = Obs.Metrics.counter "sim.perf.runs"
let h_total_cycles = Obs.Metrics.histogram "sim.perf.total-cycles"

(* Double buffering halves the PLM sets: one half holds the block in
   flight while the other is drained/filled. The guard is exposed
   non-raising so CLI paths can surface it as a stable diagnostic
   ([sim-overlap-infeasible]) instead of a crash. *)
let overlap_requirement ~k ~m =
  if m >= 2 * k then None
  else
    Some
      (Printf.sprintf
         "overlap requires m >= 2k for double buffering, got m=%d < 2k=%d \
          (k=%d accelerators)"
         m (2 * k) k)

(* The per-phase emission behind [Obs.Timeline], laid out from the
   cycle model's own estimate. Non-overlapped blocks tile the host track
   back to back (dma-in, compute, dma-out); the overlapped pipeline is
   fill + [blocks] steady-state slots of max(io, compute) + drain, with
   the DMA engine draining block b-1 and prefetching block b+1 inside
   slot b. Controller rounds and per-kernel executions are nested inside
   every compute window, so the ctrl track's busy cycles sum to
   exec_cycles and the dma track's to transfer_cycles exactly. *)
let emit_timeline ~overlap (s : Cost.shape) (ce : Cost.cycle_estimate) =
  let k = s.Cost.sh_k and batch = s.Cost.sh_batch in
  let round_cycles = ce.Cost.ce_round_cycles and blocks = ce.Cost.ce_blocks in
  let block_in = ce.Cost.ce_block_in and block_out = ce.Cost.ce_block_out in
  let compute_block = batch * round_cycles in
  let io_block = block_in + block_out in
  let acc = Array.init k (fun i -> "acc" ^ string_of_int i) in
  let block_attr b = [ ("block", string_of_int b) ] in
  let emit_compute ~block ~start =
    for r = 0 to batch - 1 do
      let rs = start + (r * round_cycles) in
      let attrs =
        [ ("block", string_of_int block); ("round", string_of_int r) ]
      in
      Obs.Timeline.phase ~track:"ctrl" ~name:"round" ~start:rs
        ~dur:round_cycles ~attrs ();
      for i = 0 to k - 1 do
        Obs.Timeline.phase ~track:acc.(i) ~name:"kernel" ~start:rs
          ~dur:s.Cost.sh_latency ~attrs ()
      done
    done
  in
  if not overlap then
    for b = 0 to blocks - 1 do
      let base = b * (io_block + compute_block) in
      Obs.Timeline.phase ~track:"host" ~name:"dma-in" ~start:base
        ~dur:block_in ~attrs:(block_attr b) ();
      Obs.Timeline.phase ~track:"dma" ~name:"dma-in" ~start:base
        ~dur:block_in ~attrs:(block_attr b) ();
      Obs.Timeline.phase ~track:"host" ~name:"compute"
        ~start:(base + block_in) ~dur:compute_block ~attrs:(block_attr b) ();
      emit_compute ~block:b ~start:(base + block_in);
      let out_start = base + block_in + compute_block in
      Obs.Timeline.phase ~track:"host" ~name:"dma-out" ~start:out_start
        ~dur:block_out ~attrs:(block_attr b) ();
      Obs.Timeline.phase ~track:"dma" ~name:"dma-out" ~start:out_start
        ~dur:block_out ~attrs:(block_attr b) ()
    done
  else begin
    let steady = max io_block compute_block in
    Obs.Timeline.phase ~track:"host" ~name:"fill" ~start:0 ~dur:block_in
      ~attrs:(block_attr 0) ();
    Obs.Timeline.phase ~track:"dma" ~name:"dma-in" ~start:0 ~dur:block_in
      ~attrs:(block_attr 0) ();
    for b = 0 to blocks - 1 do
      let slot = block_in + (b * steady) in
      Obs.Timeline.phase ~track:"host" ~name:"steady" ~start:slot ~dur:steady
        ~attrs:(block_attr b) ();
      emit_compute ~block:b ~start:slot;
      if b > 0 then
        Obs.Timeline.phase ~track:"dma" ~name:"dma-out" ~start:slot
          ~dur:block_out ~attrs:(block_attr (b - 1)) ();
      if b < blocks - 1 then
        Obs.Timeline.phase ~track:"dma" ~name:"dma-in"
          ~start:(slot + if b > 0 then block_out else 0)
          ~dur:block_in ~attrs:(block_attr (b + 1)) ()
    done;
    let drain = block_in + (blocks * steady) in
    Obs.Timeline.phase ~track:"host" ~name:"drain" ~start:drain
      ~dur:block_out ~attrs:(block_attr (blocks - 1)) ();
    Obs.Timeline.phase ~track:"dma" ~name:"dma-out" ~start:drain
      ~dur:block_out ~attrs:(block_attr (blocks - 1)) ()
  end

let run_hw_general ~overlap ~(system : Sysgen.System.t) ~board =
  let shape = shape_of system in
  let k = shape.Cost.sh_k and m = shape.Cost.sh_m in
  (if overlap then
     match overlap_requirement ~k ~m with
     | Some msg -> invalid_arg ("Perf.run_hw: " ^ msg)
     | None -> ());
  Obs.Metrics.incr c_perf_runs;
  Obs.Trace.with_span "sim.perf" @@ fun () ->
  Obs.Trace.span_attr "k" (string_of_int k);
  Obs.Trace.span_attr "m" (string_of_int m);
  let ce = Cost.cycles ~overlap ~board:(board_model board) shape in
  if Obs.Timeline.enabled () then emit_timeline ~overlap shape ce;
  let freq = float_of_int board.Fpga_platform.Board.fmax_mhz *. 1e6 in
  Obs.Trace.span_attr "round_cycles" (string_of_int ce.Cost.ce_round_cycles);
  Obs.Metrics.observe h_total_cycles (float_of_int ce.Cost.ce_total_cycles);
  {
    k;
    m;
    exec_cycles = ce.Cost.ce_exec_cycles;
    transfer_cycles = ce.Cost.ce_transfer_cycles;
    total_cycles = ce.Cost.ce_total_cycles;
    exec_seconds = float_of_int ce.Cost.ce_exec_cycles /. freq;
    total_seconds = ce.Cost.ce_seconds;
  }

let run_sw ~variant ~flops_per_element ~n_elements ~board =
  let penalty =
    match variant with
    | `Reference -> 1.0
    | `Hls_code -> Constants.hls_code_cpu_penalty
  in
  let cycles =
    float_of_int flops_per_element
    *. float_of_int n_elements *. Constants.arm_cycles_per_flop *. penalty
  in
  let freq = float_of_int board.Fpga_platform.Board.host_clock_mhz *. 1e6 in
  { flops_per_element; cpu_cycles = cycles; seconds = cycles /. freq }

let run_hw ~system ~board = run_hw_general ~overlap:false ~system ~board
let run_hw_overlapped ~system ~board = run_hw_general ~overlap:true ~system ~board

let accel_speedup ~baseline r =
  float_of_int baseline.exec_cycles /. float_of_int r.exec_cycles

let total_speedup ~baseline r =
  float_of_int baseline.total_cycles /. float_of_int r.total_cycles

let speedup_vs_sw ~sw r = sw.seconds /. r.total_seconds

let pp_hw ppf r =
  Format.fprintf ppf
    "k=%d m=%d: exec %d cycles (%.3f s), transfers %d cycles, total %.3f s"
    r.k r.m r.exec_cycles r.exec_seconds r.transfer_cycles r.total_seconds
