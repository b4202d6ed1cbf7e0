(* Tests for the extension features: the SEM operator library, the DSE
   sweep/Pareto API, transfer-compute overlap, and multi-FPGA scaling. *)

open Tensor

let case name f = Alcotest.test_case name `Quick f

(* ---------- operator library ---------- *)

let compile_op program =
  Cfd_core.Compile.compile ~options:Cfd_core.Compile.default_options program

let test_operators_all_verify () =
  List.iter
    (fun (name, program) ->
      let r = compile_op program in
      Alcotest.(check bool) (name ^ " verifies") true
        (Cfd_core.Compile.verify ~seed:5 r))
    (Cfdlang.Operators.all ~p:4 ())

let test_gradient_reference () =
  let p = 4 in
  let checked = Cfdlang.Check.check_exn (Cfdlang.Operators.gradient ~p ()) in
  let dm = Dense.random ~seed:1 (Shape.create [ p; p ]) in
  let u = Dense.random ~seed:2 (Shape.cube 3 p) in
  let outs = Cfdlang.Eval.run checked [ ("Dm", dm); ("u", u) ] in
  let gx = List.assoc "gx" outs
  and gy = List.assoc "gy" outs
  and gz = List.assoc "gz" outs in
  (* independent references with documented layouts *)
  let ref_gx =
    Dense.init (Shape.cube 3 p) (function
      | [ i; j; k ] ->
          let acc = ref 0.0 in
          for l = 0 to p - 1 do
            acc := !acc +. (Dense.get dm [ i; l ] *. Dense.get u [ l; j; k ])
          done;
          !acc
      | _ -> assert false)
  in
  let ref_gy =
    (* gy[j,i,k] = sum_m Dm[j,m] u[i,m,k] *)
    Dense.init (Shape.cube 3 p) (function
      | [ j; i; k ] ->
          let acc = ref 0.0 in
          for m = 0 to p - 1 do
            acc := !acc +. (Dense.get dm [ j; m ] *. Dense.get u [ i; m; k ])
          done;
          !acc
      | _ -> assert false)
  in
  let ref_gz =
    (* gz[k,i,j] = sum_n Dm[k,n] u[i,j,n] *)
    Dense.init (Shape.cube 3 p) (function
      | [ k; i; j ] ->
          let acc = ref 0.0 in
          for n = 0 to p - 1 do
            acc := !acc +. (Dense.get dm [ k; n ] *. Dense.get u [ i; j; n ])
          done;
          !acc
      | _ -> assert false)
  in
  Alcotest.(check bool) "gx" true (Dense.equal ~tol:1e-9 gx ref_gx);
  Alcotest.(check bool) "gy" true (Dense.equal ~tol:1e-9 gy ref_gy);
  Alcotest.(check bool) "gz" true (Dense.equal ~tol:1e-9 gz ref_gz)

let test_laplacian_reference () =
  let p = 3 in
  let checked = Cfdlang.Check.check_exn (Cfdlang.Operators.laplacian ~p ()) in
  let a = Dense.random ~seed:3 (Shape.create [ p; p ]) in
  let u = Dense.random ~seed:4 (Shape.cube 3 p) in
  let outs =
    Cfdlang.Eval.run checked [ ("A", a); ("Id", Dense.identity p); ("u", u) ]
  in
  let lap = List.assoc "lap" outs in
  let reference =
    Dense.init (Shape.cube 3 p) (function
      | [ i; j; k ] ->
          let acc = ref 0.0 in
          for l = 0 to p - 1 do
            acc :=
              !acc
              +. (Dense.get a [ i; l ] *. Dense.get u [ l; j; k ])
              +. (Dense.get a [ j; l ] *. Dense.get u [ i; l; k ])
              +. (Dense.get a [ k; l ] *. Dense.get u [ i; j; l ])
          done;
          !acc
      | _ -> assert false)
  in
  Alcotest.(check bool) "laplacian" true (Dense.equal ~tol:1e-8 lap reference)

let test_laplacian_identity_stiffness () =
  (* with A = I the collocation Laplacian is 3u *)
  let p = 3 in
  let checked = Cfdlang.Check.check_exn (Cfdlang.Operators.laplacian ~p ()) in
  let u = Dense.random ~seed:5 (Shape.cube 3 p) in
  let outs =
    Cfdlang.Eval.run checked
      [ ("A", Dense.identity p); ("Id", Dense.identity p); ("u", u) ]
  in
  Alcotest.(check bool) "3u" true
    (Dense.equal ~tol:1e-9 (List.assoc "lap" outs) (Ops.scale 3.0 u))

let test_gradient_multi_output_system () =
  (* multi-output kernels flow through system generation and transfers *)
  let r = compile_op (Cfdlang.Operators.gradient ~p:4 ()) in
  let sys = Cfd_core.Compile.build_system ~force_k:2 ~n_elements:8 r in
  Sysgen.System.validate sys;
  Alcotest.(check int) "three output transfers" 3
    (List.length sys.Sysgen.System.host.Sysgen.System.per_element_out)

let test_gradient_through_full_system () =
  (* multi-output kernel through the full-system functional simulation:
     validates multi-transfer output DMA with k=2 steering *)
  let p = 4 in
  let r = compile_op (Cfdlang.Operators.gradient ~p ()) in
  let sys = Cfd_core.Compile.build_system ~force_k:2 ~force_m:4 ~n_elements:6 r in
  Sysgen.System.validate sys;
  let dm = Dense.random ~seed:31 (Shape.create [ p; p ]) in
  let us = Array.init 6 (fun e -> Dense.random ~seed:(40 + e) (Shape.cube 3 p)) in
  let inputs e = [ ("Dm", Dense.to_array dm); ("u", Dense.to_array us.(e)) ] in
  let outs =
    Sim.Functional.run ~system:sys ~proc:r.Cfd_core.Compile.proc ~inputs ~n:6 ()
  in
  Array.iteri
    (fun e bindings ->
      let checked = r.Cfd_core.Compile.checked in
      let expected =
        Cfdlang.Eval.run checked [ ("Dm", dm); ("u", us.(e)) ]
      in
      List.iter
        (fun (name, want) ->
          let got =
            Dense.of_array (Shape.cube 3 p) (List.assoc name bindings)
          in
          if not (Dense.equal ~tol:1e-9 got want) then
            Alcotest.failf "element %d output %s wrong" e name)
        expected)
    outs

let test_autoschedule_operator_suite () =
  List.iter
    (fun (name, program) ->
      let checked = Cfdlang.Check.check_exn program in
      let kernel =
        Tir.Transform.optimize ~factorize_contractions:true
          (Tir.Builder.build ~name checked)
      in
      let flow = Lower.Flow.of_kernel ~name kernel in
      let _, sched = Lower.Autoschedule.schedule flow in
      Alcotest.(check bool) (name ^ " legal") true (Oracle.legal flow sched))
    (Cfdlang.Operators.all ~p:3 ())

let qcheck_partition_always_verifies =
  QCheck.Test.make ~name:"block partitioning preserves semantics" ~count:12
    QCheck.(pair (int_range 0 2) (int_range 2 4))
    (fun (dim, banks) ->
      let p = 4 in
      let checked = Cfdlang.Check.check_exn (Cfdlang.Ast.inverse_helmholtz ~p ()) in
      let program =
        Lower.Flow.of_kernel ~name:"helm" (Tir.Builder.build ~name:"helm" checked)
      in
      let program = Lower.Layout.block_partition program "t" ~dim ~banks in
      let schedule = Lower.Reschedule.compute program in
      if not (Oracle.legal program schedule) then false
      else begin
        let proc =
          Loopir.Scalarize.optimize (Lower.Codegen.generate program schedule)
        in
        let inputs = Helmholtz.make_inputs ~seed:(dim + banks) p in
        let results =
          Loopir.Interp.run_fresh proc
            ~inputs:
              [
                ("S", Dense.to_array inputs.Helmholtz.s);
                ("D", Dense.to_array inputs.Helmholtz.d);
                ("u", Dense.to_array inputs.Helmholtz.u);
              ]
        in
        let got = Dense.of_array (Shape.cube 3 p) (List.assoc "v" results) in
        Dense.equal ~tol:1e-8 got (Helmholtz.direct inputs)
      end)

let test_operator_factorization_benefit () =
  (* laplacian's TTM terms factorize: latency must drop substantially *)
  let direct_opts =
    { Cfd_core.Compile.default_options with Cfd_core.Compile.factorize = false }
  in
  let lap = Cfdlang.Operators.laplacian ~p:8 () in
  let fact = Cfd_core.Compile.compile lap in
  let direct = Cfd_core.Compile.compile ~options:direct_opts lap in
  Alcotest.(check bool) "factorization helps laplacian" true
    (fact.Cfd_core.Compile.hls.Hls.Model.latency_cycles * 3
    < direct.Cfd_core.Compile.hls.Hls.Model.latency_cycles)

(* ---------- DSE sweep & Pareto ---------- *)

let test_sweep_outcomes () =
  let outcomes =
    Cfd_core.Explore.sweep ~n_elements:1024 (Cfdlang.Ast.inverse_helmholtz ~p:11 ())
  in
  Alcotest.(check int) "five configurations" 5 (List.length outcomes);
  let by_label l =
    List.find
      (fun (o : Cfd_core.Explore.outcome) ->
        o.Cfd_core.Explore.configuration.Cfd_core.Explore.label = l)
      outcomes
  in
  let shared = by_label "factorized + decoupled + sharing" in
  let unshared = by_label "factorized + decoupled, no sharing" in
  Alcotest.(check int) "sharing reaches 16" 16 shared.Cfd_core.Explore.max_replicas;
  Alcotest.(check int) "no sharing caps at 8" 8 unshared.Cfd_core.Explore.max_replicas;
  Alcotest.(check bool) "sharing faster" true
    (shared.Cfd_core.Explore.seconds < unshared.Cfd_core.Explore.seconds);
  let unroll2 = by_label "factorized + sharing + unroll 2" in
  Alcotest.(check bool) "unroll 2 fastest" true
    (unroll2.Cfd_core.Explore.seconds < shared.Cfd_core.Explore.seconds)

let test_pareto_no_dominated () =
  let outcomes =
    Cfd_core.Explore.sweep ~n_elements:1024 (Cfdlang.Ast.inverse_helmholtz ~p:11 ())
  in
  let front = Cfd_core.Explore.pareto outcomes in
  Alcotest.(check bool) "non-empty" true (front <> []);
  (* the direct-contraction config is dominated by the factorized one
     (same class of resources, far slower): it must not be on the front *)
  Alcotest.(check bool) "direct kernel dominated" true
    (not
       (List.exists
          (fun (o : Cfd_core.Explore.outcome) ->
            o.Cfd_core.Explore.configuration.Cfd_core.Explore.label
            = "direct contraction + sharing")
          front));
  (* pairwise non-domination inside the front *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a != b then
            Alcotest.(check bool) "front is non-dominated" false
              (a.Cfd_core.Explore.resources.Fpga_platform.Resource.lut
               <= b.Cfd_core.Explore.resources.Fpga_platform.Resource.lut
              && a.Cfd_core.Explore.resources.Fpga_platform.Resource.bram18
                 <= b.Cfd_core.Explore.resources.Fpga_platform.Resource.bram18
              && a.Cfd_core.Explore.seconds < b.Cfd_core.Explore.seconds))
        front)
    front

let test_emit_all () =
  let r =
    Cfd_core.Compile.compile
      ~options:
        { Cfd_core.Compile.default_options with Cfd_core.Compile.kernel_name = "helm" }
      (Cfdlang.Ast.inverse_helmholtz ~p:4 ())
  in
  let sys = Cfd_core.Compile.build_system ~force_k:2 ~n_elements:16 r in
  let artifacts = Cfd_core.Compile.emit_all r sys in
  Alcotest.(check int) "nine artifacts" 9 (List.length artifacts);
  List.iter
    (fun (name, contents) ->
      Alcotest.(check bool) (name ^ " non-empty") true (String.length contents > 50))
    artifacts;
  Alcotest.(check bool) "kernel C present" true
    (List.mem_assoc "helm.c" artifacts)

let test_sweep_small_board_infeasible () =
  let config =
    {
      Sysgen.Replicate.default_config with
      Sysgen.Replicate.board = Fpga_platform.Board.small_test_board;
      interface_reserve = Fpga_platform.Resource.zero;
    }
  in
  let outcomes =
    Cfd_core.Explore.sweep ~config ~n_elements:16
      (Cfdlang.Ast.inverse_helmholtz ~p:11 ())
  in
  (* the 15-DSP kernel doesn't fit 64 DSPs more than a few times; at
     least the direct 37-DSP variant plus its PLMs must overrun BRAM *)
  Alcotest.(check bool) "reports rather than raises" true
    (List.length outcomes = 5)

(* ---------- transfer overlap (future work) ---------- *)

let board = Sysgen.Replicate.default_config.Sysgen.Replicate.board

let test_overlap_helps_batching () =
  let r = Cfd_core.Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:11 ()) in
  let sys = Cfd_core.Compile.build_system ~force_k:8 ~force_m:16 ~n_elements:4096 r in
  let plain = Sim.Perf.run_hw ~system:sys ~board in
  let overlapped = Sim.Perf.run_hw_overlapped ~system:sys ~board in
  Alcotest.(check bool) "overlap strictly faster" true
    (overlapped.Sim.Perf.total_seconds < plain.Sim.Perf.total_seconds);
  (* compute-bound kernel: overlap should hide nearly all transfer time *)
  let hidden =
    plain.Sim.Perf.total_seconds -. overlapped.Sim.Perf.total_seconds
  in
  let transfers =
    float_of_int plain.Sim.Perf.transfer_cycles
    /. (float_of_int board.Fpga_platform.Board.fmax_mhz *. 1e6)
  in
  Alcotest.(check bool) "hides most transfer time" true
    (hidden > 0.8 *. transfers)

let test_overlap_requires_double_buffering () =
  let r = Cfd_core.Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:11 ()) in
  let sys = Cfd_core.Compile.build_system ~force_k:8 ~force_m:8 ~n_elements:64 r in
  match Sim.Perf.run_hw_overlapped ~system:sys ~board with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ---------- cluster scaling ---------- *)

let cluster_nodes r n_nodes total_elements =
  List.map
    (fun share ->
      ( Fpga_platform.Board.zcu106,
        Cfd_core.Compile.build_system ~n_elements:share r ))
    (Sim.Cluster.partition_elements ~n:total_elements ~parts:n_nodes)

let test_cluster_single_node_degenerates () =
  let r = Cfd_core.Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:11 ()) in
  let nodes = cluster_nodes r 1 4096 in
  let res = Sim.Cluster.run ~nodes ~network_gbps:Float.infinity in
  let _, sys = List.hd nodes in
  let direct = Sim.Perf.run_hw ~system:sys ~board in
  Alcotest.(check (float 1e-9)) "same time" direct.Sim.Perf.total_seconds
    res.Sim.Cluster.cluster_seconds;
  Alcotest.(check (float 1e-6)) "speedup 1" 1.0 res.Sim.Cluster.speedup_vs_first_node

let test_cluster_strong_scaling () =
  let r = Cfd_core.Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:11 ()) in
  let speedup n =
    (Sim.Cluster.run ~nodes:(cluster_nodes r n 8192) ~network_gbps:100.0)
      .Sim.Cluster.speedup_vs_first_node
  in
  let s2 = speedup 2 and s4 = speedup 4 in
  Alcotest.(check bool) "2 nodes faster" true (s2 > 1.5 && s2 <= 2.0);
  Alcotest.(check bool) "4 nodes faster still" true (s4 > s2 && s4 <= 4.0)

let test_cluster_network_bound () =
  let r = Cfd_core.Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:11 ()) in
  let eff gbps =
    (Sim.Cluster.run ~nodes:(cluster_nodes r 4 8192) ~network_gbps:gbps)
      .Sim.Cluster.efficiency
  in
  Alcotest.(check bool) "slow network hurts efficiency" true (eff 1.0 < eff 100.0)

let test_cluster_partition () =
  Alcotest.(check (list int)) "even" [ 4; 4; 4 ]
    (Sim.Cluster.partition_elements ~n:12 ~parts:3);
  Alcotest.(check (list int)) "ragged" [ 5; 4; 4 ]
    (Sim.Cluster.partition_elements ~n:13 ~parts:3);
  match Sim.Cluster.partition_elements ~n:2 ~parts:3 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ---------- bottleneck analysis ---------- *)

let test_bottleneck_compute_bound () =
  let r = Cfd_core.Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:11 ()) in
  let sys = Cfd_core.Compile.build_system ~force_k:1 ~n_elements:1024 r in
  let rep = Sim.Bottleneck.analyze ~system:sys ~board () in
  Alcotest.(check bool) "compute bound" true
    (rep.Sim.Bottleneck.time = Sim.Bottleneck.Compute_bound);
  Alcotest.(check bool) "fractions sum to 1" true
    (Float.abs
       (rep.Sim.Bottleneck.compute_fraction
       +. rep.Sim.Bottleneck.transfer_fraction -. 1.0)
    < 1e-9);
  (* k = 1 is far from the resource ceiling *)
  Alcotest.(check bool) "headroom" true
    (rep.Sim.Bottleneck.doubling_blocked_by = Sim.Bottleneck.None_fits_more)

let test_bottleneck_bram_blocked () =
  (* the paper's story: at max replication the binding resource is BRAM *)
  let r = Cfd_core.Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:11 ()) in
  let sys = Cfd_core.Compile.build_system ~n_elements:1024 r in
  let rep = Sim.Bottleneck.analyze ~system:sys ~board () in
  Alcotest.(check bool) "BRAM binds at m=16" true
    (rep.Sim.Bottleneck.doubling_blocked_by = Sim.Bottleneck.Bram)

let test_bottleneck_overlap_gain () =
  let r = Cfd_core.Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:11 ()) in
  let sys = Cfd_core.Compile.build_system ~force_k:4 ~force_m:8 ~n_elements:1024 r in
  let rep = Sim.Bottleneck.analyze ~system:sys ~board () in
  (match rep.Sim.Bottleneck.overlap_gain with
  | Some g -> Alcotest.(check bool) "gain > 1" true (g > 1.0)
  | None -> Alcotest.fail "expected an overlap gain");
  (* without spare PLM sets there is no double buffering *)
  let sys_kk = Cfd_core.Compile.build_system ~force_k:8 ~n_elements:1024 r in
  let rep_kk = Sim.Bottleneck.analyze ~system:sys_kk ~board () in
  Alcotest.(check bool) "no gain without spare sets" true
    (rep_kk.Sim.Bottleneck.overlap_gain = None)

let suite =
  [
    ( "operators",
      [
        case "all verify end-to-end" test_operators_all_verify;
        case "gradient reference" test_gradient_reference;
        case "laplacian reference" test_laplacian_reference;
        case "laplacian with identity stiffness" test_laplacian_identity_stiffness;
        case "multi-output system" test_gradient_multi_output_system;
        case "gradient through full system" test_gradient_through_full_system;
        case "autoschedule on suite" test_autoschedule_operator_suite;
        case "factorization benefit" test_operator_factorization_benefit;
        Test_seed.to_alcotest qcheck_partition_always_verifies;
      ] );
    ( "explore",
      [
        case "sweep outcomes" test_sweep_outcomes;
        case "pareto front" test_pareto_no_dominated;
        case "small board" test_sweep_small_board_infeasible;
        case "emit_all" test_emit_all;
      ] );
    ( "sim.overlap",
      [
        case "overlap helps batching" test_overlap_helps_batching;
        case "requires double buffering" test_overlap_requires_double_buffering;
      ] );
    ( "sim.cluster",
      [
        case "single node degenerates" test_cluster_single_node_degenerates;
        case "strong scaling" test_cluster_strong_scaling;
        case "network bound" test_cluster_network_bound;
        case "partitioning" test_cluster_partition;
      ] );
    ( "sim.bottleneck",
      [
        case "compute bound" test_bottleneck_compute_bound;
        case "BRAM blocks doubling" test_bottleneck_bram_blocked;
        case "overlap gain" test_bottleneck_overlap_gain;
      ] );
  ]
