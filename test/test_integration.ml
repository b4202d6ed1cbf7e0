(* Integration-level tests: dataflow analysis & auto-scheduling, the
   full-system functional simulation (steering/transfer validation), and a
   whole-pipeline fuzzer over randomly generated CFDlang programs. *)

open Tensor

let case name f = Alcotest.test_case name `Quick f

let helm_program ?(p = 4) () =
  let checked = Cfdlang.Check.check_exn (Cfdlang.Ast.inverse_helmholtz ~p ()) in
  Lower.Flow.of_kernel ~name:"helm" (Tir.Builder.build ~name:"helm" checked)

(* ---------- dataflow ---------- *)

let test_statement_deps () =
  let program = helm_program () in
  let deps = Lower.Dataflow.statement_deps program in
  let has kind src dst array =
    List.exists
      (fun (d : Lower.Dataflow.dep) ->
        d.Lower.Dataflow.kind = kind && d.Lower.Dataflow.src_stmt = src
        && d.Lower.Dataflow.dst_stmt = dst && d.Lower.Dataflow.array = array)
      deps
  in
  Alcotest.(check bool) "RAW t_mac -> r_stmt on t" true
    (has Lower.Dataflow.Raw "t_mac" "r_stmt" "t");
  Alcotest.(check bool) "WAW t_init -> t_mac" true
    (has Lower.Dataflow.Waw "t_init" "t_mac" "t");
  Alcotest.(check bool) "RAR t_mac, v_mac on S" true
    (has Lower.Dataflow.Rar "t_mac" "v_mac" "S");
  Alcotest.(check bool) "no RAW v -> t" false
    (has Lower.Dataflow.Raw "v_mac" "t_mac" "t")

let test_element_raw_hadamard () =
  let program = helm_program ~p:3 () in
  let rel = Lower.Dataflow.element_raw program "t_mac" "r_stmt" in
  (* the mac instance [i,j,k,l,m,n] feeds exactly the pointwise instance
     [i,j,k] *)
  Alcotest.(check bool) "feeds same point" true
    (Poly.Rel.mem rel [| 1; 2; 0; 0; 1; 2 |] [| 1; 2; 0 |]);
  Alcotest.(check bool) "not another point" false
    (Poly.Rel.mem rel [| 1; 2; 0; 0; 1; 2 |] [| 0; 2; 0 |])

let test_element_raw_errors () =
  let program = helm_program ~p:2 () in
  (match Lower.Dataflow.element_raw program "nope" "r_stmt" with
  | _ -> Alcotest.fail "expected Error"
  | exception Lower.Flow.Error _ -> ());
  match Lower.Dataflow.element_raw program "r_stmt" "t_mac" with
  | _ -> Alcotest.fail "expected Error (no shared array)"
  | exception Lower.Flow.Error _ -> ()

let test_live_span_cost_prefers_fusion () =
  let program = helm_program () in
  let unfused =
    Lower.Reschedule.compute
      ~options:
        { Lower.Reschedule.default with Lower.Reschedule.fuse_init = false }
      program
  in
  let fused =
    Lower.Reschedule.compute
      ~options:
        { Lower.Reschedule.default with Lower.Reschedule.fuse_pointwise = true }
      program
  in
  let c_unfused = Lower.Dataflow.live_span_cost program unfused in
  let c_fused = Lower.Dataflow.live_span_cost program fused in
  Alcotest.(check bool) "fusion shrinks live spans" true (c_fused < c_unfused)

let test_autoschedule_picks_min_cost () =
  let program = helm_program () in
  let options, sched = Lower.Autoschedule.schedule program in
  Lower.Schedule.validate program sched;
  Alcotest.(check bool) "legal" true (Oracle.legal program sched);
  (* the cost-minimal candidate for Helmholtz fuses everything *)
  Alcotest.(check bool) "fuses init" true options.Lower.Reschedule.fuse_init;
  Alcotest.(check bool) "fuses pointwise" true options.Lower.Reschedule.fuse_pointwise;
  let cost = Lower.Dataflow.live_span_cost program sched in
  List.iter
    (fun o ->
      let other = Lower.Reschedule.compute ~options:o program in
      Alcotest.(check bool) "minimal" true
        (cost <= Lower.Dataflow.live_span_cost program other))
    Lower.Autoschedule.candidates

let test_autoschedule_codegen_verifies () =
  let program = helm_program () in
  let _, sched = Lower.Autoschedule.schedule program in
  let proc = Loopir.Scalarize.optimize (Lower.Codegen.generate program sched) in
  let inputs = Helmholtz.make_inputs ~seed:2 4 in
  let results =
    Loopir.Interp.run_fresh proc
      ~inputs:
        [
          ("S", Dense.to_array inputs.Helmholtz.s);
          ("D", Dense.to_array inputs.Helmholtz.d);
          ("u", Dense.to_array inputs.Helmholtz.u);
        ]
  in
  let got = Dense.of_array (Shape.cube 3 4) (List.assoc "v" results) in
  Alcotest.(check bool) "verifies" true
    (Dense.equal ~tol:1e-8 got (Helmholtz.direct inputs))

(* ---------- full-system functional simulation ---------- *)

let compile_small () =
  Cfd_core.Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:4 ())

let run_system ?(n = 10) ~force_k ?force_m () =
  let r = compile_small () in
  let sys = Cfd_core.Compile.build_system ~force_k ?force_m ~n_elements:n r in
  Sysgen.System.validate sys;
  let element_inputs =
    Array.init n (fun e -> Helmholtz.make_inputs ~seed:(100 + e) 4)
  in
  let inputs e =
    let i = element_inputs.(e) in
    [
      ("S", Dense.to_array i.Helmholtz.s);
      ("D", Dense.to_array i.Helmholtz.d);
      ("u", Dense.to_array i.Helmholtz.u);
    ]
  in
  let outs =
    Sim.Functional.run ~system:sys ~proc:r.Cfd_core.Compile.proc ~inputs ~n ()
  in
  Array.iteri
    (fun e bindings ->
      let v = List.assoc "v" bindings in
      let got = Dense.of_array (Shape.cube 3 4) v in
      let expected = Helmholtz.direct element_inputs.(e) in
      if not (Dense.equal ~tol:1e-8 got expected) then
        Alcotest.failf "element %d wrong (max diff %g)" e
          (Dense.max_abs_diff got expected))
    outs

let test_functional_k1 () = run_system ~force_k:1 ()
let test_functional_k4 () = run_system ~force_k:4 ()

let test_functional_batched () =
  (* k=2, m=8: four rounds per block, exercising the batch steering *)
  run_system ~n:17 ~force_k:2 ~force_m:8 ()

let test_functional_padded_tail () =
  (* n not a multiple of m: the padded tail must not corrupt results *)
  run_system ~n:7 ~force_k:4 ~force_m:4 ()

let test_functional_missing_input () =
  let r = compile_small () in
  let sys = Cfd_core.Compile.build_system ~force_k:1 ~n_elements:2 r in
  match
    Sim.Functional.run ~system:sys ~proc:r.Cfd_core.Compile.proc
      ~inputs:(fun _ -> [])
      ~n:2 ()
  with
  | _ -> Alcotest.fail "expected Error"
  | exception Sim.Functional.Error _ -> ()

(* ---------- whole-pipeline fuzzer ---------- *)

(* Random single-assignment CFDlang programs over small shapes: each
   statement combines previously defined tensors with elementwise ops,
   matrix-vector / matrix-matrix contractions, or TTM contractions. *)
let gen_program =
  QCheck.Gen.(
    let dims_pool = [ []; [ 3 ]; [ 3; 3 ]; [ 3; 3; 3 ] ] in
    let* n_inputs = int_range 2 4 in
    let* input_dims = list_repeat n_inputs (oneofl dims_pool) in
    let inputs = List.mapi (fun i d -> (Printf.sprintf "in%d" i, d)) input_dims in
    let* n_stmts = int_range 1 4 in
    let rec build env acc k st =
      if k = 0 then List.rev acc
      else begin
        let name = Printf.sprintf "x%d" (List.length acc) in
        (* choose an expression over env *)
        let pick_with_dims want =
          let cands = List.filter (fun (_, d) -> d = want) env in
          match cands with
          | [] -> None
          | l -> Some (fst (List.nth l (Random.State.int st (List.length l))))
        in
        let choice = Random.State.int st 4 in
        let stmt_and_dims =
          match choice with
          | 0 -> (
              (* elementwise of two same-shaped tensors *)
              let _, d = List.nth env (Random.State.int st (List.length env)) in
              match pick_with_dims d with
              | Some a -> (
                  match pick_with_dims d with
                  | Some b ->
                      let op = List.nth [ "+"; "-"; "*" ] (Random.State.int st 3) in
                      Some (Printf.sprintf "%s = %s %s %s" name a op b, d)
                  | None -> None)
              | None -> None)
          | 1 -> (
              (* scalar scale *)
              let a, d = List.nth env (Random.State.int st (List.length env)) in
              Some (Printf.sprintf "%s = %s * 2.0 + %s" name a a, d))
          | 2 -> (
              (* matvec: [3;3] # [3] . [[1 2]] *)
              match (pick_with_dims [ 3; 3 ], pick_with_dims [ 3 ]) with
              | Some m, Some v ->
                  Some (Printf.sprintf "%s = %s # %s . [[1 2]]" name m v, [ 3 ])
              | _ -> None)
          | _ -> (
              (* matmul: [3;3] # [3;3] . [[1 2]] *)
              match (pick_with_dims [ 3; 3 ], pick_with_dims [ 3; 3 ]) with
              | Some a, Some b ->
                  Some (Printf.sprintf "%s = %s # %s . [[1 2]]" name a b, [ 3; 3 ])
              | _ -> None)
        in
        match stmt_and_dims with
        | Some (stmt, d) -> build ((name, d) :: env) ((stmt, (name, d)) :: acc) (k - 1) st
        | None -> build env acc (k - 1) st
      end
    in
    fun random_state ->
      let stmts = build inputs [] n_stmts random_state in
      match stmts with
      | [] -> None
      | _ ->
          let _, (out_name, out_dims) = List.nth stmts (List.length stmts - 1) in
          let decls =
            List.map
              (fun (n, d) ->
                Printf.sprintf "var input %s : [%s]" n
                  (String.concat " " (List.map string_of_int d)))
              inputs
            @ List.map
                (fun (_, (n, d)) ->
                  Printf.sprintf "var %s : [%s]" n
                    (String.concat " " (List.map string_of_int d)))
                stmts
            @ [
                Printf.sprintf "var output out : [%s]"
                  (String.concat " " (List.map string_of_int out_dims));
              ]
          in
          let body = List.map fst stmts in
          Some
            (String.concat "\n" (decls @ body @ [ "out = " ^ out_name ])))

let qcheck_fuzz_pipeline =
  QCheck.Test.make ~name:"random programs survive the whole pipeline" ~count:60
    (QCheck.make gen_program)
    (fun source_opt ->
      match source_opt with
      | None -> true
      | Some source -> (
          match Cfd_core.Compile.compile_source source with
          | Error msg ->
              (* generated programs are well-typed by construction *)
              QCheck.Test.fail_reportf "compile failed: %s\n%s" msg source
          | Ok r ->
              Cfd_core.Compile.verify ~seed:17 r
              ||
              QCheck.Test.fail_reportf "verification failed for\n%s" source))

let qcheck_fuzz_option_matrix =
  QCheck.Test.make ~name:"random programs verify under all option sets" ~count:20
    (QCheck.make gen_program)
    (fun source_opt ->
      match source_opt with
      | None -> true
      | Some source ->
          List.for_all
            (fun (factorize, decoupled, sharing) ->
              let options =
                {
                  Cfd_core.Compile.default_options with
                  Cfd_core.Compile.factorize;
                  decoupled;
                  sharing;
                }
              in
              match Cfd_core.Compile.compile_source ~options source with
              | Error msg -> QCheck.Test.fail_reportf "compile: %s\n%s" msg source
              | Ok r ->
                  Cfd_core.Compile.verify ~seed:3 r
                  || QCheck.Test.fail_reportf "verify failed (f=%b d=%b s=%b)\n%s"
                       factorize decoupled sharing source)
            [ (true, true, true); (false, true, false); (true, false, true) ])

let suite =
  [
    ( "dataflow",
      [
        case "statement deps" test_statement_deps;
        case "element RAW (hadamard)" test_element_raw_hadamard;
        case "element RAW errors" test_element_raw_errors;
        case "live span cost" test_live_span_cost_prefers_fusion;
        case "autoschedule minimal" test_autoschedule_picks_min_cost;
        case "autoschedule verifies" test_autoschedule_codegen_verifies;
      ] );
    ( "sim.functional",
      [
        case "k=1" test_functional_k1;
        case "k=4" test_functional_k4;
        case "batched k=2 m=8" test_functional_batched;
        case "padded tail" test_functional_padded_tail;
        case "missing input" test_functional_missing_input;
      ] );
    ( "fuzz",
      [
        Test_seed.to_alcotest qcheck_fuzz_pipeline;
        Test_seed.to_alcotest qcheck_fuzz_option_matrix;
      ] );
  ]
