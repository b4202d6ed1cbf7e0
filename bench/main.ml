(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VI), plus the ablations called out in DESIGN.md.

   Default: run every experiment and print the paper-shaped tables.
     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe table1     # one experiment
     (targets: table1 fig5 fig8 fig9 fig10 batch
               ablate-factorize ablate-decouple ablate-reserve
               ablate-overlap ablate-unroll ablate-ii operators sem
               exec memprof)

   --bechamel additionally runs Bechamel micro-benchmarks of the compiler
   stages themselves (one Test.make per experiment's dominant stage).
   Each experiment writes its span trace to TRACE_<target>.json (Chrome
   trace-event format) in the cwd; --no-trace turns span recording off.
   `memprof` also writes BENCH_memprof.json to the cwd. Timing
   regressions are gated by perfbench (BENCHMARK.json), not here. *)

let board = Sysgen.Replicate.default_config.Sysgen.Replicate.board
let n_elements = 50000

let compile ?(p = 11) ?(factorize = true) ?(decoupled = true) ~sharing () =
  let options =
    {
      Cfd_core.Compile.default_options with
      Cfd_core.Compile.factorize;
      decoupled;
      sharing;
    }
  in
  Cfd_core.Compile.compile ~options (Cfdlang.Ast.inverse_helmholtz ~p ())

let shared = lazy (compile ~sharing:true ())
let unshared = lazy (compile ~sharing:false ())

let hw ?r k =
  let r = match r with Some r -> r | None -> Lazy.force shared in
  let sys = Cfd_core.Compile.build_system ~force_k:k ~n_elements r in
  Sysgen.System.validate sys;
  Sim.Perf.run_hw ~system:sys ~board

let sw_ref =
  lazy
    (Sim.Perf.run_sw ~variant:`Reference
       ~flops_per_element:(Tensor.Helmholtz.flops_factorized 11)
       ~n_elements ~board)

let header title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n"

(* ---------------- E1: Table I ---------------- *)

let table1 () =
  header
    "Table I: resource utilization, no-sharing vs sharing architectures\n\
     (paper: LUT 11,318..77,235; FF 9,523..55,053; DSP 15m)";
  let cap = board.Fpga_platform.Board.capacity in
  let row r m =
    match Cfd_core.Compile.build_system ~force_k:m ~n_elements r with
    | sys ->
        let u = sys.Sysgen.System.total_resources in
        Printf.printf "  %2d | %s\n" m
          (Format.asprintf "%a" (Fpga_platform.Resource.pp_with_capacity ~capacity:cap) u)
    | exception Sysgen.Replicate.Infeasible _ ->
        Printf.printf "  %2d | does not fit\n" m
  in
  Printf.printf "No sharing (m = k):\n";
  List.iter (row (Lazy.force unshared)) [ 1; 2; 4; 8; 16 ];
  Printf.printf "Sharing (m = k):\n";
  List.iter (row (Lazy.force shared)) [ 1; 2; 4; 8; 16 ]

(* ---------------- E6: Figure 5 ---------------- *)

let fig5 () =
  header
    "Figure 5: memory-interface and address-space compatibility graph\n\
     (paper: interface arrays grouped left; t, r internal)";
  let r = Lazy.force shared in
  Format.printf "%a@." Liveness.Analysis.pp r.Cfd_core.Compile.liveness;
  Format.printf "%a@." Liveness.Analysis.pp_graph
    (Liveness.Analysis.compatibility_graph r.Cfd_core.Compile.liveness)

(* ---------------- E2: Figure 8 ---------------- *)

let fig8 () =
  header
    "Figure 8: BRAM utilization of parallel accelerators w/ and w/o sharing\n\
     (paper: 31 vs 18 BRAM per kernel; no-sharing caps at m=8, sharing at 16;\n\
     temporaries-inside variant: 24 accel + 9 memory = 33)";
  let per_kernel r =
    r.Cfd_core.Compile.memory.Mnemosyne.Memgen.total_brams
    + r.Cfd_core.Compile.hls.Hls.Model.resources.Fpga_platform.Resource.bram18
  in
  Printf.printf "per-kernel BRAM18: no sharing %d | sharing %d | temporaries-in-HLS %d\n"
    (per_kernel (Lazy.force unshared))
    (per_kernel (Lazy.force shared))
    (per_kernel (compile ~decoupled:false ~sharing:false ()));
  Printf.printf "\n   m | no-sharing BRAM | sharing BRAM   (board: 624 BRAM18, reserve 132)\n";
  List.iter
    (fun m ->
      let total r =
        match Cfd_core.Compile.build_system ~force_k:m ~n_elements r with
        | sys ->
            string_of_int
              sys.Sysgen.System.total_resources.Fpga_platform.Resource.bram18
        | exception Sysgen.Replicate.Infeasible _ -> "-"
      in
      Printf.printf "  %2d | %15s | %12s\n" m
        (total (Lazy.force unshared))
        (total (Lazy.force shared)))
    [ 1; 2; 4; 8; 16 ]

(* ---------------- E3: Figure 9 ---------------- *)

let fig9 () =
  header
    "Figure 9: accelerator and total speedup of parallel architectures\n\
     (paper: accel ~ideal k; total 7.09x at k=8, 12.58x at k=16)";
  let hw1 = hw 1 in
  Printf.printf "   k | accel speedup | total speedup\n";
  List.iter
    (fun k ->
      let r = hw k in
      Printf.printf "  %2d | %13.2f | %13.2f\n" k
        (Sim.Perf.accel_speedup ~baseline:hw1 r)
        (Sim.Perf.total_speedup ~baseline:hw1 r))
    [ 1; 2; 4; 8; 16 ]

(* ---------------- E4: Figure 10 ---------------- *)

let fig10 () =
  header
    "Figure 10: speedup vs software execution on the ARM A53\n\
     (paper: SW HLS-code < SW Ref; HW k=1 ~0.7x; HW k=16 8.62x)";
  let sw = Lazy.force sw_ref in
  let sw_hls =
    Sim.Perf.run_sw ~variant:`Hls_code
      ~flops_per_element:(Tensor.Helmholtz.flops_factorized 11)
      ~n_elements ~board
  in
  Printf.printf "  %-12s | speedup vs SW Ref\n" "variant";
  Printf.printf "  %-12s | %6.2f\n" "SW Ref" 1.0;
  Printf.printf "  %-12s | %6.2f\n" "SW HLS code"
    (sw.Sim.Perf.seconds /. sw_hls.Sim.Perf.seconds);
  List.iter
    (fun k ->
      Printf.printf "  %-12s | %6.2f\n"
        (Printf.sprintf "HW k=%d" k)
        (Sim.Perf.speedup_vs_sw ~sw (hw k)))
    [ 1; 8; 16 ]

(* ---------------- E5: k < m batching ---------------- *)

let batch () =
  header
    "Section VI k<m experiments: batching PLMs per accelerator\n\
     (paper: no improvement -- transfers are not amortized)";
  let r = Lazy.force shared in
  Printf.printf "   k |  m | batch | total s\n";
  List.iter
    (fun (k, m) ->
      match Cfd_core.Compile.build_system ~force_k:k ~force_m:m ~n_elements r with
      | sys ->
          Sysgen.System.validate sys;
          let res = Sim.Perf.run_hw ~system:sys ~board in
          Printf.printf "  %2d | %2d | %5d | %7.2f\n" k m (m / k)
            res.Sim.Perf.total_seconds
      | exception Sysgen.Replicate.Infeasible msg ->
          Printf.printf "  %2d | %2d | infeasible: %s\n" k m msg)
    [ (1, 1); (1, 2); (1, 4); (2, 2); (2, 4); (2, 8); (4, 4); (4, 8); (4, 16); (8, 8); (8, 16) ]

(* ---------------- A1: factorization ablation ---------------- *)

let ablate_factorize () =
  header
    "Ablation A1: contraction factorization (O(p^6) direct vs O(p^4) factorized)";
  Printf.printf "   p | direct cycles | factorized cycles | ratio | DSP direct/fact\n";
  List.iter
    (fun p ->
      let d = compile ~p ~factorize:false ~sharing:true () in
      let f = compile ~p ~factorize:true ~sharing:true () in
      let dl = d.Cfd_core.Compile.hls.Hls.Model.latency_cycles in
      let fl = f.Cfd_core.Compile.hls.Hls.Model.latency_cycles in
      Printf.printf "  %2d | %13d | %17d | %5.1f | %d / %d\n" p dl fl
        (float_of_int dl /. float_of_int fl)
        d.Cfd_core.Compile.hls.Hls.Model.resources.Fpga_platform.Resource.dsp
        f.Cfd_core.Compile.hls.Hls.Model.resources.Fpga_platform.Resource.dsp)
    [ 4; 6; 8; 10; 11; 12 ]

(* ---------------- A2: decoupling ablation ---------------- *)

let ablate_decouple () =
  header
    "Ablation A2: decoupled PLMs vs temporaries inside the accelerator\n\
     (paper: 33 total when inside vs 31/18 decoupled)";
  let show label r =
    let plm = r.Cfd_core.Compile.memory.Mnemosyne.Memgen.total_brams in
    let internal =
      r.Cfd_core.Compile.hls.Hls.Model.resources.Fpga_platform.Resource.bram18
    in
    Printf.printf "  %-34s: memory %2d + accelerator %2d = %2d BRAM18\n" label plm
      internal (plm + internal)
  in
  show "decoupled, sharing" (Lazy.force shared);
  show "decoupled, no sharing" (Lazy.force unshared);
  show "temporaries inside HLS, no sharing" (compile ~decoupled:false ~sharing:false ());
  show "temporaries inside HLS, sharing" (compile ~decoupled:false ~sharing:true ())

(* ---------------- A3: interface reserve sweep ---------------- *)

let ablate_reserve () =
  header
    "Ablation A3: interface BRAM reserve vs maximum replicas\n\
     (where the no-sharing design stops fitting 16 kernels)";
  Printf.printf "  reserve | max m no-sharing | max m sharing\n";
  let kernel = (Lazy.force shared).Cfd_core.Compile.hls.Hls.Model.resources in
  List.iter
    (fun reserve ->
      let config =
        {
          Sysgen.Replicate.default_config with
          Sysgen.Replicate.interface_reserve =
            Fpga_platform.Resource.make ~lut:6896 ~ff:6498 ~dsp:0 ~bram18:reserve;
        }
      in
      Printf.printf "  %7d | %16d | %13d\n" reserve
        (Sysgen.Replicate.max_m ~config ~kernel ~plm_brams:31 ())
        (Sysgen.Replicate.max_m ~config ~kernel ~plm_brams:18 ()))
    [ 0; 64; 128; 132; 192; 256; 336 ]

(* ---------------- A4: overlapped transfers (future work) ---------------- *)

let ablate_overlap () =
  header
    "Ablation A4: double-buffered transfers (paper future work)\n\
     (what the Section-VI k<m experiments would have shown with overlap)";
  let r = Lazy.force shared in
  Printf.printf "   k |  m | no overlap s | overlapped s\n";
  List.iter
    (fun (k, m) ->
      match Cfd_core.Compile.build_system ~force_k:k ~force_m:m ~n_elements r with
      | sys ->
          let plain = Sim.Perf.run_hw ~system:sys ~board in
          let overlapped =
            if m >= 2 * k then
              Printf.sprintf "%12.2f"
                (Sim.Perf.run_hw_overlapped ~system:sys ~board).Sim.Perf.total_seconds
            else "           -"
          in
          Printf.printf "  %2d | %2d | %12.2f | %s\n" k m
            plain.Sim.Perf.total_seconds overlapped
      | exception Sysgen.Replicate.Infeasible _ ->
          Printf.printf "  %2d | %2d | infeasible\n" k m)
    [ (1, 2); (2, 4); (4, 8); (8, 16); (16, 16) ]

(* ---------------- A5: unroll sweep ---------------- *)

let ablate_unroll () =
  header
    "Ablation A5: innermost-loop unrolling (operators & ports vs cycles)";
  Printf.printf
    "  unroll | cycles/elt |  DSP | PLM BRAM | max m | total s (50k elts)\n";
  List.iter
    (fun u ->
      let options =
        {
          Cfd_core.Compile.default_options with
          Cfd_core.Compile.unroll = (if u = 1 then None else Some u);
        }
      in
      let r =
        Cfd_core.Compile.compile ~options (Cfdlang.Ast.inverse_helmholtz ~p:11 ())
      in
      match Cfd_core.Compile.build_system ~n_elements r with
      | sys ->
          let hw = Sim.Perf.run_hw ~system:sys ~board in
          Printf.printf "  %6d | %10d | %4d | %8d | %5d | %7.2f\n" u
            r.Cfd_core.Compile.hls.Hls.Model.latency_cycles
            r.Cfd_core.Compile.hls.Hls.Model.resources.Fpga_platform.Resource.dsp
            r.Cfd_core.Compile.memory.Mnemosyne.Memgen.total_brams
            sys.Sysgen.System.solution.Sysgen.Replicate.m
            hw.Sim.Perf.total_seconds
      | exception Sysgen.Replicate.Infeasible msg ->
          Printf.printf "  %6d | infeasible: %s\n" u msg)
    [ 1; 2; 4; 8 ]

(* ---------------- A6: initiation interval ---------------- *)

let ablate_ii () =
  header
    "Ablation A6: pipeline initiation interval\n\
     (II=1 assumes partial-sum interleaving of the f64 accumulation;\n\
     II=7 is the naive loop-carried dependence)";
  Printf.printf "  II | cycles/elt | total s (50k elts, k=16)\n";
  List.iter
    (fun ii ->
      let options =
        {
          Cfd_core.Compile.default_options with
          Cfd_core.Compile.pipeline_ii = Some ii;
        }
      in
      let r =
        Cfd_core.Compile.compile ~options (Cfdlang.Ast.inverse_helmholtz ~p:11 ())
      in
      let sys = Cfd_core.Compile.build_system ~force_k:16 ~n_elements r in
      let hw = Sim.Perf.run_hw ~system:sys ~board in
      Printf.printf "  %2d | %10d | %7.2f\n" ii
        r.Cfd_core.Compile.hls.Hls.Model.latency_cycles
        hw.Sim.Perf.total_seconds)
    [ 1; 2; 4; 7 ]

(* ---------------- operator suite ---------------- *)

let operators () =
  header "SEM operator suite through the full flow (p = 11)";
  Printf.printf "  %-18s %10s %7s %5s %8s\n" "operator" "cycles/elt" "LUT" "DSP"
    "PLM BRAM";
  List.iter
    (fun (name, program) ->
      let r = Cfd_core.Compile.compile program in
      let hls = r.Cfd_core.Compile.hls in
      Printf.printf "  %-18s %10d %7d %5d %8d\n" name
        hls.Hls.Model.latency_cycles
        hls.Hls.Model.resources.Fpga_platform.Resource.lut
        hls.Hls.Model.resources.Fpga_platform.Resource.dsp
        r.Cfd_core.Compile.memory.Mnemosyne.Memgen.total_brams)
    (Cfdlang.Operators.all ~p:11 ())

(* ---------------- SEM solver convergence ---------------- *)

let sem () =
  header
    "SEM application: CG Helmholtz solve with the compiled accelerator\n\
     kernel in the loop (manufactured solution, spectral convergence)";
  let pi = Float.pi in
  let exact x y z = sin (pi *. x) *. sin (pi *. y) *. sin (pi *. z) in
  let forcing x y z = (1.0 +. (3.0 *. pi *. pi)) *. exact x y z in
  Printf.printf "  ne |  n | CG iters | max error (accelerated backend)\n";
  List.iter
    (fun (ne, n) ->
      let mesh = Sem.Mesh.create ~ne ~n in
      let operator = Sem.Operator.create ~lambda:1.0 ~mesh () in
      let u, stats =
        Sem.Solver.solve ~backend:Sem.Solver.Accelerator ~mesh ~operator
          ~f:forcing ()
      in
      Printf.printf "  %2d | %2d | %8d | %.3e\n" ne n
        stats.Sem.Solver.iterations
        (Sem.Solver.max_error mesh u ~exact))
    [ (1, 4); (1, 6); (1, 8); (2, 4); (2, 5); (2, 6) ]

(* ---------------- Execution engine micro-benchmark ---------------- *)

(* Adaptive timing: doubles the repetition count until a batch takes at
   least ~0.25 s, then reports seconds per run. *)
let time_per_run f =
  f ();
  let rec go reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < 0.25 && reps < 1 lsl 22 then go (reps * 2)
    else dt /. float_of_int reps
  in
  go 1

(* Blit one seeded input set of [r] into the buffers [buffer] resolves;
   an array Mnemosyne stacked into a shared PLM lives at an offset of
   its host buffer. *)
let stage_inputs r buffer =
  let storage = r.Cfd_core.Compile.memory.Mnemosyne.Memgen.storage in
  List.iter
    (fun (name, tensor) ->
      let buf, off =
        Option.value ~default:(name, 0) (List.assoc_opt name storage)
      in
      let data = Tensor.Dense.to_array tensor in
      Array.blit data 0 (buffer buf) off (Array.length data))
    (Cfdlang.Eval.random_inputs ~seed:1 r.Cfd_core.Compile.checked)

let exec () =
  header
    "Execution engine: tree-walking interpreter vs compiled LoopIR\n\
     (p=11 Inverse Helmholtz, ns per element)";
  let r = Lazy.force shared in
  let proc = r.Cfd_core.Compile.proc in
  let mode = Analysis.Verify.execution_mode proc in
  let mode_name =
    match mode with
    | Loopir.Compiled.Unchecked -> "unchecked"
    | Loopir.Compiled.Checked -> "checked"
    | Loopir.Compiled.Debug -> "debug"
  in
  let engine = Loopir.Compiled.compile ~mode proc in
  let frame = Loopir.Compiled.make_frame engine in
  stage_inputs r (Loopir.Compiled.buffer engine frame);
  let memory = Hashtbl.create 16 in
  List.iter
    (fun (prm : Loopir.Prog.param) ->
      Hashtbl.replace memory prm.Loopir.Prog.name
        (Array.make prm.Loopir.Prog.size 0.0))
    proc.Loopir.Prog.params;
  stage_inputs r (Hashtbl.find memory);
  let t_interp = time_per_run (fun () -> Loopir.Interp.run proc memory) in
  let t_compiled = time_per_run (fun () -> Loopir.Compiled.run engine frame) in
  let ns t = t *. 1e9 in
  Printf.printf "  engine mode: %s (verifier license)\n" mode_name;
  Printf.printf "  %-22s %14.0f ns/element\n" "tree-walking" (ns t_interp);
  Printf.printf "  %-22s %14.0f ns/element  (%.2fx)\n" "compiled" (ns t_compiled)
    (t_interp /. t_compiled)

(* ---------------- Memory profiler overhead ---------------- *)

(* The recorder's gate is at compile time: an engine compiled while the
   provider is absent carries no instrumentation (the disabled leg here
   is the exact production path), one compiled while recording is on
   reports every PLM access. The ratio is the cost of observability. *)
let memprof_bench () =
  header
    "Memory profiler overhead: compiled engine with the PLM access\n\
     recorder disabled vs enabled (p=11 Inverse Helmholtz)";
  let r = Lazy.force shared in
  let proc = r.Cfd_core.Compile.proc in
  let mode = Analysis.Verify.execution_mode proc in
  let timed recording =
    if recording then Memprof.Record.enable () else Memprof.Record.disable ();
    let engine = Loopir.Compiled.compile ~mode proc in
    let frame = Loopir.Compiled.make_frame engine in
    stage_inputs r (Loopir.Compiled.buffer engine frame);
    let t = time_per_run (fun () -> Loopir.Compiled.run engine frame) in
    let probed = Loopir.Compiled.probed engine in
    Memprof.Record.disable ();
    (t, probed)
  in
  let t_off, probed_off = timed false in
  let t_on, probed_on = timed true in
  let sn = Memprof.Record.snapshot () in
  let ns t = t *. 1e9 in
  Printf.printf "  %-22s %14.0f ns/element  (instrumented: %b)\n"
    "recorder disabled" (ns t_off) probed_off;
  Printf.printf "  %-22s %14.0f ns/element  (instrumented: %b, %.2fx)\n"
    "recorder enabled" (ns t_on) probed_on (t_on /. t_off);
  Printf.printf "  recorded across all timing reps: %d accesses over %d buffers\n"
    sn.Memprof.Record.sn_accesses
    (List.length sn.Memprof.Record.sn_buffers);
  let oc = open_out "BENCH_memprof.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"memprof\",\n\
    \  \"kernel\": \"inverse_helmholtz\",\n\
    \  \"p\": 11,\n\
    \  \"disabled_instrumented\": %b,\n\
    \  \"enabled_instrumented\": %b,\n\
    \  \"disabled_ns_per_element\": %.1f,\n\
    \  \"enabled_ns_per_element\": %.1f,\n\
    \  \"overhead_factor\": %.2f,\n\
    \  \"accesses_recorded\": %d,\n\
    \  \"buffers\": %d\n\
     }\n"
    probed_off probed_on (ns t_off) (ns t_on) (t_on /. t_off)
    sn.Memprof.Record.sn_accesses
    (List.length sn.Memprof.Record.sn_buffers);
  close_out oc;
  Printf.printf "  wrote BENCH_memprof.json\n"

(* ---------------- Bechamel micro-benchmarks ---------------- *)

let bechamel () =
  header "Bechamel micro-benchmarks of the compiler stages";
  let open Bechamel in
  let source = Cfdlang.Ast.to_string (Cfdlang.Ast.inverse_helmholtz ~p:11 ()) in
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:11 () in
  let checked = Cfdlang.Check.check_exn ast in
  let tir = Tir.Transform.factorize (Tir.Builder.build ~name:"helm" checked) in
  let program = Lower.Flow.of_kernel ~name:"helm" tir in
  let schedule = Lower.Reschedule.compute program in
  let small = compile ~p:4 ~sharing:true () in
  let tests =
    [
      Test.make ~name:"table1: hls+mnemosyne+sysgen (p=11)"
        (Staged.stage (fun () ->
             ignore
               (Cfd_core.Compile.build_system ~force_k:8 ~n_elements:64
                  (Lazy.force shared))));
      Test.make ~name:"fig5: liveness analysis (p=11)"
        (Staged.stage (fun () -> ignore (Liveness.Analysis.analyze program schedule)));
      Test.make ~name:"fig8: mnemosyne sharing (p=11)"
        (Staged.stage (fun () ->
             ignore
               (Mnemosyne.Memgen.generate ~mode:Mnemosyne.Memgen.Sharing program
                  schedule)));
      Test.make ~name:"fig9/10: controller round (k=16)"
        (Staged.stage (fun () ->
             let ctrl = Sysgen.Axi_ctrl.create ~k:16 ~batch:1 in
             ignore (Sysgen.Axi_ctrl.run_round ctrl ~latencies:(Array.make 16 2000))));
      Test.make ~name:"frontend: parse+check (p=11)"
        (Staged.stage (fun () -> ignore (Cfdlang.Check.parse_and_check source)));
      Test.make ~name:"middle: lower+reschedule (p=11)"
        (Staged.stage (fun () ->
             ignore (Lower.Reschedule.compute (Lower.Flow.of_kernel ~name:"b" tir))));
      Test.make ~name:"backend: codegen+scalarize (p=11)"
        (Staged.stage (fun () ->
             ignore (Loopir.Scalarize.optimize (Lower.Codegen.generate program schedule))));
      Test.make ~name:"oracle: interpreter verify (p=4)"
        (Staged.stage (fun () -> ignore (Cfd_core.Compile.verify small)));
    ]
  in
  let benchmark test =
    let quota = Time.second 0.5 in
    Benchmark.all (Benchmark.cfg ~quota ~limit:500 ()) Bechamel.Toolkit.Instance.[ monotonic_clock ] test
  in
  let analyze results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Bechamel.Toolkit.Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-46s %12.0f ns/run\n" name est
          | _ -> Printf.printf "  %-46s (no estimate)\n" name)
        results)
    tests

(* ---------------- driver ---------------- *)


let experiments =
  [
    ("table1", table1);
    ("fig5", fig5);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("batch", batch);
    ("ablate-factorize", ablate_factorize);
    ("ablate-decouple", ablate_decouple);
    ("ablate-reserve", ablate_reserve);
    ("ablate-overlap", ablate_overlap);
    ("ablate-unroll", ablate_unroll);
    ("ablate-ii", ablate_ii);
    ("operators", operators);
    ("sem", sem);
    ("exec", exec);
    ("memprof", memprof_bench);
  ]

(* Each experiment runs under its own trace window: buffers are cleared
   before and exported after, so TRACE_<target>.json holds exactly that
   target's spans. --no-trace turns the span recording off entirely for
   clean timing runs (the counters still aggregate; they are O(1) per
   engine run). *)
let run_experiment ~traced (name, f) =
  if not traced then f ()
  else begin
    Obs.Trace.set_enabled true;
    Obs.Trace.reset ();
    f ();
    let path = "TRACE_" ^ name ^ ".json" in
    Obs.Export.write_chrome_trace ~path ();
    Obs.Trace.reset ();
    Printf.printf "  wrote %s\n" path
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let named, flags =
    List.partition
      (fun a -> not (String.length a > 2 && String.sub a 0 2 = "--"))
      args
  in
  List.iter
    (fun f ->
      if f <> "--bechamel" && f <> "--no-trace" then begin
        Printf.eprintf "unknown flag %s\n" f;
        exit 2
      end)
    flags;
  let run_bechamel = List.mem "--bechamel" flags in
  let traced = not (List.mem "--no-trace" flags) in
  (match named with
  | [] -> List.iter (fun (n, f) -> run_experiment ~traced (n, f)) experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> run_experiment ~traced (name, f)
          | None ->
              Printf.eprintf "unknown experiment %s (available: %s)\n" name
                (String.concat " " (List.map fst experiments));
              exit 1)
        names);
  if run_bechamel then bechamel ()
