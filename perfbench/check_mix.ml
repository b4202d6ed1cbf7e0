(* check-mix: the edit-check loop, closed loop with one client.

   Each op renders an operator to CFDlang source and runs what
   [cfdc check] runs on it: parse, compile, check — with the polyhedral
   memo cleared first, because every CLI run starts cold. Some ops
   instead compile a pipeline, inject a defect with a known verdict
   ({!Defects}) and run the verifier on it.

   Ops come in decks. A deck holds every (operator, p) pair twice as a
   clean op (80 ops) and every (defectable operator, p) pair once as a
   defective op (24 ops, about 1 in 4), in a seeded order; which of the
   two defects a pair gets alternates over p, operator and deck, from a
   seeded start. Whole decks keep the mix of p — which sets how many
   points the verifier enumerates — and of operators the same for every
   seed, so the seed changes the order and the defect pairing but not
   the workload's size. *)

open Cfd_core

let ps = [ 6; 7; 8; 9; 10; 11; 12; 13 ]

type op =
  | Clean of { label : string; kernel : string; src : string }
  | Defect of { label : string; kernel : string; src : string; kind : Defects.kind }

type t = {
  rng : Random.State.t;
  clean : op list;  (** every (operator, p) pair *)
  defectable : string list;  (** operators the defects apply to *)
  sources : (string * int, string) Hashtbl.t;
}

let label_of = function Clean { label; _ } | Defect { label; _ } -> label

let setup ~seed =
  let sources = Hashtbl.create 64 in
  let clean =
    List.concat_map
      (fun p ->
        List.map
          (fun (kernel, ast) ->
            let src = Cfdlang.Ast.to_string ast in
            Hashtbl.replace sources (kernel, p) src;
            Clean { label = Printf.sprintf "%s@p%d" kernel p; kernel; src })
          (Cfdlang.Operators.all ~p ()))
      ps
  in
  (* An operator is defectable when its compiled pipeline has a
     temporary with an init, accumulations and readers; decided once at
     the smallest p (the structure does not depend on p). *)
  let defectable =
    List.filter_map
      (fun (kernel, ast) ->
        match Compile.compile ~options:(Defects.base_options kernel) ast with
        | r when Defects.movable_init r.Compile.program <> None -> Some kernel
        | _ -> None)
      (Cfdlang.Operators.all ~p:(List.hd ps) ())
  in
  { rng = Random.State.make [| seed; 0xC4EC |]; clean; defectable; sources }

let defect_op t (p, kernel, kind) =
  Defect
    {
      label = Printf.sprintf "%s@p%d/%s" kernel p (Defects.name kind);
      kernel;
      src = Hashtbl.find t.sources (kernel, p);
      kind;
    }

let defect_pairs t = List.concat_map (fun p -> List.map (fun k -> (p, k)) t.defectable) ps

(* Deck [i], whose defects alternate from the seeded [start]. *)
let deck t ~start i =
  let defects =
    List.mapi
      (fun j (p, kernel) ->
        defect_op t (p, kernel, List.nth Defects.kinds ((start + i + j) mod 2)))
      (defect_pairs t)
  in
  Stats.shuffle t.rng (t.clean @ t.clean @ defects)

(* The traced run's cycle: every clean op and both defects of every
   defective pair, so its per-op counts are the same for every seed. *)
let full_cycle t =
  let defects =
    List.concat_map
      (fun (p, kernel) -> List.map (fun kind -> defect_op t (p, kernel, kind)) Defects.kinds)
      (defect_pairs t)
  in
  Stats.shuffle t.rng (t.clean @ defects)

(* --- the user path ------------------------------------------------- *)

let options kernel = { Compile.default_options with Compile.kernel_name = kernel }

let run_clean ~kernel src =
  match Compile.compile_source ~options:(options kernel) src with
  | Error e -> Error ("compile: " ^ e)
  | Ok r -> Ok (r, Compile.check r)

let clean_verdict = function
  | Error e -> Error e
  | Ok (_, diags) -> (
      match Analysis.Diagnostic.errors diags with
      | [] -> Ok ()
      | errs -> Error ("clean kernel rejected: " ^ Analysis.Diagnostic.summary errs))

let run_defect ~kernel ~kind src =
  match Compile.compile_source ~options:(Defects.base_options kernel) src with
  | Error e -> Error ("compile: " ^ e)
  | Ok r -> (
      match Defects.inject kind (r.Compile.program, r.Compile.schedule) with
      | None -> Error "no init to inject the defect into"
      | Some (program, schedule) -> Ok (r, Analysis.Verify.all ~program ~schedule ()))

let defect_verdict kind = function
  | Error e -> Error e
  | Ok (_, diags) ->
      if Defects.verdict_ok kind diags then Ok ()
      else
        Error
          (Printf.sprintf "expected %s, got %s"
             (String.concat "+" (Defects.expected_rules kind))
             (String.concat "+"
                (List.map (fun d -> d.Analysis.Diagnostic.rule) (Analysis.Diagnostic.errors diags))))

(* --- untraced run -------------------------------------------------- *)

let run t ~seconds ~tick =
  let f = Outcome.failures () in
  let clean_ms = ref [] and reject_ms = ref [] in
  let start = Random.State.int t.rng 2 in
  let t0 = Unix.gettimeofday () in
  let decks = ref 0 and last_deck = ref 0.0 in
  while !decks = 0 || Unix.gettimeofday () -. t0 +. !last_deck <= seconds do
    let d0 = Unix.gettimeofday () in
    List.iter
      (fun op ->
        tick ();
        Outcome.cold_start ();
        match op with
        | Clean { kernel; src; label } ->
            let r, dt = Outcome.time (fun () -> run_clean ~kernel src) in
            clean_ms := (dt *. 1000.0) :: !clean_ms;
            Outcome.attempt f label (fun () -> clean_verdict r)
        | Defect { kernel; src; kind; label } ->
            let r, dt = Outcome.time (fun () -> run_defect ~kernel ~kind src) in
            reject_ms := (dt *. 1000.0) :: !reject_ms;
            Outcome.attempt f label (fun () -> defect_verdict kind r))
      (deck t ~start !decks);
    incr decks;
    last_deck := Unix.gettimeofday () -. d0
  done;
  Outcome.finish f
    ~metrics:
      [
        Outcome.metric "op_p50_ms" "ms" (Stats.median !clean_ms);
        Outcome.metric "op2_p50_ms" "ms" (Stats.median !reject_ms);
      ]
    ~details:
      [
        ("decks", Obs.Json.Int !decks);
        ("check_ms", Outcome.timing ~unit_:"ms" !clean_ms);
        ("reject_ms", Outcome.timing ~unit_:"ms" !reject_ms);
      ]

(* --- traced run ---------------------------------------------------- *)

let run_traced t ~seconds =
  let f = Outcome.failures () in
  let user_s = ref 0.0 in
  (* Poly counters count the decomposed path only: each call is
     bracketed and the differences summed. *)
  let acc = Array.make 4 0 in
  let measured g =
    let before = Pipeline.poly_counts () in
    let r = g () in
    Array.iteri (fun i x -> acc.(i) <- acc.(i) + x - before.(i)) (Pipeline.poly_counts ());
    r
  in
  let t0 = Unix.gettimeofday () in
  let cycles = ref 0 and last_cycle = ref 0.0 in
  while !cycles = 0 || Unix.gettimeofday () -. t0 +. !last_cycle <= seconds do
    let c0 = Unix.gettimeofday () in
    List.iter
      (fun op ->
        Outcome.attempt f (label_of op) (fun () ->
            Outcome.cold_start ();
            Spans.enabled := false;
            let user, dt =
              Outcome.time (fun () ->
                  match op with
                  | Clean { kernel; src; _ } -> run_clean ~kernel src
                  | Defect { kernel; src; kind; _ } -> run_defect ~kernel ~kind src)
            in
            user_s := !user_s +. dt;
            Outcome.cold_start ();
            Spans.enabled := true;
            let what = label_of op in
            Spans.with_ "op" (fun () ->
                measured (fun () ->
                    match (op, user) with
                    | _, Error e -> Error e
                    | Clean { kernel; src; _ }, Ok (r, diags) ->
                        let mine = Pipeline.compile_source ~options:(options kernel) src in
                        Pipeline.same_compile ~what r mine;
                        Pipeline.same_verdict ~what diags (Pipeline.check mine);
                        clean_verdict user
                    | Defect { kernel; src; kind; _ }, Ok (r, diags) -> (
                        let mine = Pipeline.compile_source ~options:(Defects.base_options kernel) src in
                        Pipeline.same_compile ~what r mine;
                        match Defects.inject kind (mine.Compile.program, mine.Compile.schedule) with
                        | None -> Error "no init to inject the defect into"
                        | Some (program, schedule) ->
                            Pipeline.same_verdict ~what diags
                              (Pipeline.verify_families ~program ~schedule ());
                            defect_verdict kind user)))))
      (full_cycle t);
    incr cycles;
    last_cycle := Unix.gettimeofday () -. c0
  done;
  Spans.enabled := false;
  let per_op x = x /. float_of_int f.attempted in
  let ms name = per_op (Spans.total name *. 1000.0) in
  let op_s = Spans.total "op" in
  Outcome.finish f
    ~metrics:(
      Pipeline.layer_metrics ~ms ~share_of:op_s
      @ Pipeline.poly_metrics ~ops:f.attempted acc
      @ [ Outcome.metric "trace.overhead_ms" "ms" (per_op ((op_s -. !user_s) *. 1000.0)) ])
    ~details:[ ("cycles", Obs.Json.Int !cycles) ]
