(* Tests for lib/lower/layout (Section IV-D layout expressions and
   partitioning maps) and lib/liveness/sharing (explicit merges). *)

open Tensor

let case name f = Alcotest.test_case name `Quick f

let helm_program ?(p = 4) () =
  let checked = Cfdlang.Check.check_exn (Cfdlang.Ast.inverse_helmholtz ~p ()) in
  Lower.Flow.of_kernel ~name:"helm" (Tir.Builder.build ~name:"helm" checked)

(* Compile a transformed program and check v against the reference. *)
let check_program ?(p = 4) ?(input_bindings = None) program =
  let schedule = Lower.Reschedule.compute program in
  Alcotest.(check bool) "schedule legal" true (Oracle.legal program schedule);
  let proc = Loopir.Scalarize.optimize (Lower.Codegen.generate program schedule) in
  let inputs = Helmholtz.make_inputs ~seed:9 p in
  let bindings =
    match input_bindings with
    | Some b -> b inputs
    | None ->
        [
          ("S", Dense.to_array inputs.Helmholtz.s);
          ("D", Dense.to_array inputs.Helmholtz.d);
          ("u", Dense.to_array inputs.Helmholtz.u);
        ]
  in
  let results = Loopir.Interp.run_fresh proc ~inputs:bindings in
  let v = List.assoc "v" results in
  let got = Dense.of_array (Shape.cube 3 p) (Array.sub v 0 (p * p * p)) in
  let expected = Helmholtz.direct inputs in
  if not (Dense.equal ~tol:1e-8 got expected) then
    Alcotest.failf "transformed program diverges (max diff %g)"
      (Dense.max_abs_diff got expected)

(* ---------- layout expressions ---------- *)

let test_permuted_layout_map () =
  let l = Lower.Layout.permuted [ 3; 4; 5 ] [ 2; 0; 1 ] in
  (* order [2;0;1]: dim 1 innermost (stride 1), dim 0 next (stride 4),
     dim 2 outermost (stride 12) *)
  Alcotest.(check (array int)) "apply"
    [| (1 * 4) + (2 * 1) + (3 * 12) |]
    (Poly.Aff_map.apply l [| 1; 2; 3 |])

let test_permuted_identity_is_row_major () =
  let l = Lower.Layout.permuted [ 3; 4 ] [ 0; 1 ] in
  Alcotest.(check (array int)) "row major" [| (2 * 4) + 3 |]
    (Poly.Aff_map.apply l [| 2; 3 |])

let test_permuted_invalid () =
  match Lower.Layout.permuted [ 3; 4 ] [ 0; 0 ] with
  | _ -> Alcotest.fail "expected Error"
  | exception Lower.Layout.Error _ -> ()

let test_padded_layout () =
  let l = Lower.Layout.padded_row_major [ 3; 5 ] ~align:8 in
  Alcotest.(check (array int)) "padded stride" [| (2 * 8) + 3 |]
    (Poly.Aff_map.apply l [| 2; 3 |])

let test_set_layout_column_major_verifies () =
  let program = helm_program () in
  let cm = Lower.Layout.permuted [ 4; 4; 4 ] [ 2; 1; 0 ] in
  let program = Lower.Layout.set_layout program "t" cm in
  check_program program

let test_set_layout_padded_grows_array () =
  let program = helm_program () in
  let padded = Lower.Layout.padded_row_major [ 4; 4; 4 ] ~align:8 in
  let program = Lower.Layout.set_layout program "t" padded in
  let info = Lower.Flow.array_info program "t" in
  (* 4x4 rows of stride 8 plus a last row of 4 *)
  Alcotest.(check int) "padded size" ((4 * 4 * 8) - 8 + 4) info.Lower.Flow.size;
  check_program program

let test_set_layout_on_input_and_output () =
  let program = helm_program () in
  let program =
    Lower.Layout.set_layout program "v" (Lower.Layout.permuted [ 4; 4; 4 ] [ 1; 0; 2 ])
  in
  (* v now has a permuted layout: the raw buffer is not row-major, so
     compare through the layout *)
  let schedule = Lower.Reschedule.compute program in
  let proc = Loopir.Scalarize.optimize (Lower.Codegen.generate program schedule) in
  let inputs = Helmholtz.make_inputs ~seed:3 4 in
  let results =
    Loopir.Interp.run_fresh proc
      ~inputs:
        [
          ("S", Dense.to_array inputs.Helmholtz.s);
          ("D", Dense.to_array inputs.Helmholtz.d);
          ("u", Dense.to_array inputs.Helmholtz.u);
        ]
  in
  let vbuf = List.assoc "v" results in
  let layout = (Lower.Flow.array_info program "v").Lower.Flow.layout in
  let expected = Helmholtz.direct inputs in
  Shape.iter (Shape.cube 3 4) (fun idx ->
      let off = (Poly.Aff_map.apply layout (Array.of_list idx)).(0) in
      let want = Dense.get expected idx in
      if Float.abs (vbuf.(off) -. want) > 1e-8 then
        Alcotest.failf "v%s: got %g want %g" (String.concat "," (List.map string_of_int idx)) vbuf.(off) want)

let test_set_layout_rejects_non_injective () =
  let program = helm_program () in
  let bad =
    Poly.Aff_map.make
      (Poly.Space.make "t" [ "d0"; "d1"; "d2" ])
      (Poly.Space.make "t" [ "a" ])
      [| Poly.Aff.add (Poly.Aff.var 3 0) (Poly.Aff.var 3 1) |]
  in
  match Lower.Layout.set_layout program "t" bad with
  | _ -> Alcotest.fail "expected rejection"
  | exception Lower.Flow.Error _ -> ()
  | exception Lower.Layout.Error _ -> ()

let test_set_layout_unknown_array () =
  match Lower.Layout.set_layout (helm_program ()) "zz" (Lower.Layout.permuted [ 2 ] [ 0 ]) with
  | _ -> Alcotest.fail "expected Error"
  | exception Lower.Layout.Error _ -> ()

(* ---------- block partitioning ---------- *)

let test_partition_input_u () =
  let program = helm_program () in
  let program = Lower.Layout.block_partition program "u" ~dim:0 ~banks:2 in
  (* u is gone; u__0 and u__1 exist *)
  Alcotest.(check bool) "u gone" true
    (match Lower.Flow.array_info program "u" with
    | _ -> false
    | exception Lower.Flow.Error _ -> true);
  let b0 = Lower.Flow.array_info program "u__0" in
  Alcotest.(check (list int)) "bank shape" [ 2; 4; 4 ] b0.Lower.Flow.tensor_shape;
  let inputs_split (i : Helmholtz.inputs) =
    let u = Dense.to_array i.Helmholtz.u in
    [
      ("S", Dense.to_array i.Helmholtz.s);
      ("D", Dense.to_array i.Helmholtz.d);
      ("u__0", Array.sub u 0 32);
      ("u__1", Array.sub u 32 32);
    ]
  in
  check_program ~input_bindings:(Some inputs_split) program

let test_partition_temp_t () =
  let program = helm_program () in
  let program = Lower.Layout.block_partition program "t" ~dim:2 ~banks:2 in
  (* statements touching t split; statement count grows *)
  Alcotest.(check bool) "more statements" true
    (List.length program.Lower.Flow.stmts > 5);
  check_program program

let test_partition_uneven () =
  let program = helm_program ~p:5 () in
  let program = Lower.Layout.block_partition program "t" ~dim:0 ~banks:2 in
  let b1 = Lower.Flow.array_info program "t__1" in
  (* 5 split as 3 + 2 *)
  Alcotest.(check (list int)) "ragged bank" [ 2; 5; 5 ] b1.Lower.Flow.tensor_shape;
  check_program ~p:5 program

let test_partition_reduction_dim () =
  (* partition u along a dimension that is reduced: the mac splits into
     two accumulations over sub-ranges, which must still sum correctly *)
  let program = helm_program () in
  let program = Lower.Layout.block_partition program "u" ~dim:2 ~banks:4 in
  let inputs_split (i : Helmholtz.inputs) =
    (* dim 2 is innermost: bank b holds the u[.,.,b] columns, laid out
       row-major in the bank's own [4;4;1] tensor shape *)
    let bank b =
      let arr = Array.make 16 0.0 in
      let pos = ref 0 in
      Shape.iter (Shape.create [ 4; 4 ]) (fun ij ->
          match ij with
          | [ x; y ] ->
              arr.(!pos) <- Dense.get i.Helmholtz.u [ x; y; b ];
              incr pos
          | _ -> assert false);
      arr
    in
    [
      ("S", Dense.to_array i.Helmholtz.s);
      ("D", Dense.to_array i.Helmholtz.d);
      ("u__0", bank 0);
      ("u__1", bank 1);
      ("u__2", bank 2);
      ("u__3", bank 3);
    ]
  in
  check_program ~input_bindings:(Some inputs_split) program

let test_partition_bad_args () =
  let program = helm_program () in
  let expect_error f =
    match f () with
    | _ -> Alcotest.fail "expected Error"
    | exception Lower.Layout.Error _ -> ()
    | exception Lower.Flow.Error _ -> ()
  in
  expect_error (fun () -> Lower.Layout.block_partition program "u" ~dim:5 ~banks:2);
  expect_error (fun () -> Lower.Layout.block_partition program "u" ~dim:0 ~banks:0);
  expect_error (fun () -> Lower.Layout.block_partition program "u" ~dim:0 ~banks:9);
  expect_error (fun () -> Lower.Layout.block_partition program "zz" ~dim:0 ~banks:2)

let test_partition_increases_plm_units () =
  let program = helm_program ~p:11 () in
  let program = Lower.Layout.block_partition program "u" ~dim:0 ~banks:2 in
  let schedule = Lower.Reschedule.compute program in
  let arch =
    Mnemosyne.Memgen.generate ~mode:Mnemosyne.Memgen.No_sharing program schedule
  in
  (* seven arrays now: S D u__0 u__1 v t r *)
  Alcotest.(check int) "units" 7 (List.length arch.Mnemosyne.Memgen.units)

(* ---------- explicit merges ---------- *)

let test_merge_legal () =
  let program = helm_program () in
  let schedule = Lower.Reschedule.compute program in
  let storage =
    Liveness.Sharing.merge_storage program schedule [ ("u", "r"); ("t", "v") ]
  in
  Alcotest.(check bool) "u and r share" true
    (List.assoc "u" storage = List.assoc "r" storage);
  let proc = Lower.Codegen.generate ~storage program schedule in
  let p = 4 in
  let inputs = Helmholtz.make_inputs ~seed:5 p in
  let ubuf, _ = List.assoc "u" storage in
  let vbuf, _ = List.assoc "v" storage in
  let results =
    Loopir.Interp.run_fresh proc
      ~inputs:
        [
          ("S", Dense.to_array inputs.Helmholtz.s);
          ("D", Dense.to_array inputs.Helmholtz.d);
          (ubuf, Dense.to_array inputs.Helmholtz.u);
        ]
  in
  let v = List.assoc vbuf results in
  Alcotest.(check bool) "merged program correct" true
    (Dense.equal ~tol:1e-8
       (Dense.of_array (Shape.cube 3 p) (Array.sub v 0 (p * p * p)))
       (Helmholtz.direct inputs))

let test_merge_illegal_rejected () =
  let program = helm_program () in
  let schedule = Lower.Reschedule.compute program in
  match Liveness.Sharing.merge_storage program schedule [ ("u", "t") ] with
  | _ -> Alcotest.fail "expected Illegal"
  | exception Liveness.Sharing.Illegal _ -> ()

let test_merge_transitive_requires_pairwise () =
  let program = helm_program () in
  let schedule = Lower.Reschedule.compute program in
  (* u~r legal, r~t illegal: the transitive group {u,r,t} must be rejected *)
  match Liveness.Sharing.merge_storage program schedule [ ("u", "r"); ("r", "t") ] with
  | _ -> Alcotest.fail "expected Illegal"
  | exception Liveness.Sharing.Illegal _ -> ()

let test_merge_force_overrides () =
  let program = helm_program () in
  let schedule = Lower.Reschedule.compute program in
  let storage =
    Liveness.Sharing.merge_storage ~force:true program schedule [ ("u", "t") ]
  in
  Alcotest.(check bool) "forced" true (List.mem_assoc "u" storage)

let test_merge_unknown_array () =
  let program = helm_program () in
  let schedule = Lower.Reschedule.compute program in
  match Liveness.Sharing.merge_storage program schedule [ ("u", "zz") ] with
  | _ -> Alcotest.fail "expected Illegal"
  | exception Liveness.Sharing.Illegal _ -> ()

let suite =
  [
    ( "layout.expressions",
      [
        case "permuted map" test_permuted_layout_map;
        case "identity permutation" test_permuted_identity_is_row_major;
        case "invalid permutation" test_permuted_invalid;
        case "padded strides" test_padded_layout;
        case "column-major temp verifies" test_set_layout_column_major_verifies;
        case "padded temp grows & verifies" test_set_layout_padded_grows_array;
        case "permuted output layout" test_set_layout_on_input_and_output;
        case "non-injective rejected" test_set_layout_rejects_non_injective;
        case "unknown array" test_set_layout_unknown_array;
      ] );
    ( "layout.partition",
      [
        case "partition input" test_partition_input_u;
        case "partition temp" test_partition_temp_t;
        case "uneven banks" test_partition_uneven;
        case "reduction dimension" test_partition_reduction_dim;
        case "bad arguments" test_partition_bad_args;
        case "more PLM units" test_partition_increases_plm_units;
      ] );
    ( "liveness.sharing",
      [
        case "legal merge" test_merge_legal;
        case "illegal merge rejected" test_merge_illegal_rejected;
        case "transitive pairwise" test_merge_transitive_requires_pairwise;
        case "force override" test_merge_force_overrides;
        case "unknown array" test_merge_unknown_array;
      ] );
  ]
