(* Exact-enumeration oracles for the schedule analyses.

   Both walk every statement instance and compare per-element
   timestamps, so their cost is proportional to the number of instances:
   they are references for small domains, against which the verifier's
   polyhedral proofs are tested ([Analysis.Verify.schedule_deps] and
   [Analysis.Verify.use_before_def]). *)

module BS = Poly.Basic_set
module Lex = Poly.Lex
module Flow = Lower.Flow
module Schedule = Lower.Schedule
module D = Analysis.Diagnostic

(* ---- schedule legality ---- *)

type events = {
  mutable init_ts : Lex.timestamp option;
  mutable last_write : Lex.timestamp option;
  mutable first_accum : Lex.timestamp option;
  mutable first_read : Lex.timestamp option;
}

(* For every read of an array element, the producing write is scheduled
   strictly earlier; initializations precede their accumulations;
   accumulation order changes are permitted (reductions are
   reassociable). *)
let legal (program : Flow.program) t =
  (match Schedule.validate program t with
  | () -> ()
  | exception Schedule.Error _ -> ());
  let table : (string * int, events) Hashtbl.t = Hashtbl.create 1024 in
  let get array off =
    match Hashtbl.find_opt table (array, off) with
    | Some e -> e
    | None ->
        let e =
          { init_ts = None; last_write = None; first_accum = None; first_read = None }
        in
        Hashtbl.add table (array, off) e;
        e
  in
  let lex_min a b = match a with None -> Some b | Some x -> Some (Lex.min x b) in
  let lex_max a b = match a with None -> Some b | Some x -> Some (Lex.max x b) in
  List.iter
    (fun (stmt : Flow.statement) ->
      let sched = Schedule.find t stmt.Flow.stmt_name in
      let wmap = Flow.array_access program stmt.Flow.write in
      let rmaps =
        List.map
          (fun r -> (r.Flow.array, Flow.array_access program r))
          (Flow.reads stmt)
      in
      List.iter
        (fun x ->
          let ts = Schedule.timestamp t sched x in
          let woff = (Poly.Aff_map.apply wmap x).(0) in
          let ev = get stmt.Flow.write.Flow.array woff in
          ev.last_write <- lex_max ev.last_write ts;
          (match stmt.Flow.compute with
          | Flow.Init _ -> ev.init_ts <- lex_min ev.init_ts ts
          | Flow.Mac _ -> ev.first_accum <- lex_min ev.first_accum ts
          | Flow.Assign_pointwise _ | Flow.Assign_copy _ -> ());
          List.iter
            (fun (array, rmap) ->
              let roff = (Poly.Aff_map.apply rmap x).(0) in
              let rev = get array roff in
              rev.first_read <- lex_min rev.first_read ts)
            rmaps)
        (BS.enumerate stmt.Flow.domain))
    program.Flow.stmts;
  let ok = ref true in
  Hashtbl.iter
    (fun (_array, _off) ev ->
      (match (ev.last_write, ev.first_read) with
      | Some w, Some r when not (Lex.lt w r) -> ok := false
      | _ -> ());
      match (ev.init_ts, ev.first_accum) with
      | Some i, Some a when not (Lex.lt i a) -> ok := false
      | _ -> ())
    table;
  !ok

(* ---- use-before-def ---- *)

let iter_box (dom : BS.t) f =
  match BS.bounding_box dom with
  | None -> invalid_arg "Oracle.iter_box: unbounded domain"
  | Some box ->
      let k = Array.length box in
      if k = 0 then (if BS.mem dom [||] then f [||])
      else if Array.for_all (fun (lo, hi) -> lo <= hi) box then begin
        let x = Array.map fst box in
        let continue_ = ref true in
        while !continue_ do
          if BS.mem dom x then f x;
          let rec inc j =
            if j < 0 then continue_ := false
            else if x.(j) < snd box.(j) then x.(j) <- x.(j) + 1
            else begin
              x.(j) <- fst box.(j);
              inc (j - 1)
            end
          in
          inc (k - 1)
        done
      end

(* The use-before-def rule by enumeration alone, with the diagnostics
   [Analysis.Verify.use_before_def] must reproduce byte for byte. Pass 1
   tabulates the lexicographically first write of every element of every
   written array; pass 2 flags, once per (statement, array), the first
   instance reading an element at or before that write. *)
let use_before_def (program : Flow.program) (schedule : Schedule.t) =
  let diags = ref [] in
  let first_write : (string, Lex.timestamp option array) Hashtbl.t =
    Hashtbl.create 16
  in
  let table name =
    match Hashtbl.find_opt first_write name with
    | Some t -> t
    | None ->
        let info = Flow.array_info program name in
        let t = Array.make (max info.Flow.size 0) None in
        Hashtbl.replace first_write name t;
        t
  in
  List.iter
    (fun (stmt : Flow.statement) ->
      let s1 = Schedule.find schedule stmt.Flow.stmt_name in
      let wmap = Flow.array_access program stmt.Flow.write in
      let tbl = table stmt.Flow.write.Flow.array in
      iter_box stmt.Flow.domain (fun x ->
          let off = (Poly.Aff_map.apply wmap x).(0) in
          if off >= 0 && off < Array.length tbl then
            let ts = Schedule.timestamp schedule s1 x in
            match tbl.(off) with
            | None -> tbl.(off) <- Some ts
            | Some cur -> if Lex.lt ts cur then tbl.(off) <- Some ts))
    program.Flow.stmts;
  List.iter
    (fun (stmt : Flow.statement) ->
      let s1 = Schedule.find schedule stmt.Flow.stmt_name in
      let reads =
        Flow.reads stmt
        @ (match stmt.Flow.compute with
          | Flow.Mac _ -> [ stmt.Flow.write ]
          | _ -> [])
      in
      let flagged = ref [] in
      List.iter
        (fun (r : Flow.access) ->
          let info = Flow.array_info program r.Flow.array in
          if info.Flow.kind <> Flow.Input && not (List.mem r.Flow.array !flagged)
          then begin
            let rmap = Flow.array_access program r in
            let tbl = table r.Flow.array in
            let witness = ref None in
            (try
               iter_box stmt.Flow.domain (fun x ->
                   let off = (Poly.Aff_map.apply rmap x).(0) in
                   if off >= 0 && off < Array.length tbl then
                     let bad why =
                       witness := Some (Array.copy x, off, why);
                       raise Exit
                     in
                     match tbl.(off) with
                     | None -> bad "the element is never written"
                     | Some fw ->
                         let ts = Schedule.timestamp schedule s1 x in
                         if not (Lex.lt fw ts) then
                           bad "the read is scheduled at or before its first write")
             with Exit -> ());
            match !witness with
            | None -> ()
            | Some (x, off, why) ->
                flagged := r.Flow.array :: !flagged;
                diags :=
                  D.error ~rule:"use-before-def" ~subject:stmt.Flow.stmt_name
                    ~witness:(D.Instance (stmt.Flow.stmt_name, x))
                    (Format.sprintf "reads %s@%d before it is defined: %s"
                       r.Flow.array off why)
                  :: !diags
          end)
        reads)
    program.Flow.stmts;
  List.rev !diags
