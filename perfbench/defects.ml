(* Defective pipelines with known verdicts, built through the public
   [Lower.Flow] / [Lower.Schedule] values of a clean compile. Both
   defects target an initialization of a consumed temporary that also
   has accumulations:

   - [Moved_init]: the init is scheduled after every other statement, so
     its consumers read the temporary first (dep-raw), its accumulations
     precede it (dep-waw) and the accumulator reads uninitialized
     elements (use-before-def);
   - [Dropped_init]: the init is removed, so only use-before-def fires.

   Every error diagnostic of a correct verdict carries a witness. *)

module Flow = Lower.Flow
module Schedule = Lower.Schedule
module D = Analysis.Diagnostic

type kind = Moved_init | Dropped_init

let kinds = [ Moved_init; Dropped_init ]
let name = function Moved_init -> "moved-init" | Dropped_init -> "dropped-init"

let expected_rules = function
  | Moved_init -> [ "dep-raw"; "dep-waw"; "use-before-def" ]
  | Dropped_init -> [ "use-before-def" ]

let movable_init (program : Flow.program) =
  List.find_opt
    (fun (s : Flow.statement) ->
      match s.Flow.compute with
      | Flow.Init _ ->
          let a = s.Flow.write.Flow.array in
          (Flow.array_info program a).Flow.kind = Flow.Temp
          && List.exists
               (fun (t : Flow.statement) ->
                 match t.Flow.compute with
                 | Flow.Mac _ -> t.Flow.write.Flow.array = a
                 | _ -> false)
               program.Flow.stmts
          && List.exists
               (fun (t : Flow.statement) ->
                 List.exists (fun (r : Flow.access) -> r.Flow.array = a) (Flow.reads t))
               program.Flow.stmts
      | _ -> false)
    program.Flow.stmts

(* The options a defective op compiles its base pipeline with: separate
   storage per array, so the schedule alone decides the verdict. *)
let base_options kernel_name =
  { Cfd_core.Compile.default_options with Cfd_core.Compile.kernel_name; sharing = false }

(* [None] when the program has no temporary the defects can target. *)
let inject kind ((program : Flow.program), (schedule : Schedule.t)) =
  Option.map
    (fun (init : Flow.statement) ->
      let victim = init.Flow.stmt_name in
      match kind with
      | Moved_init ->
          let last =
            List.fold_left
              (fun acc (_, (s : Schedule.sched1)) -> max acc s.Schedule.betas.(0))
              0 schedule
          in
          ( program,
            List.map
              (fun (n, (s : Schedule.sched1)) ->
                if n = victim then begin
                  let betas = Array.copy s.Schedule.betas in
                  betas.(0) <- last + 1;
                  (n, { s with Schedule.betas })
                end
                else (n, s))
              schedule )
      | Dropped_init ->
          ( {
              program with
              Flow.stmts =
                List.filter (fun (s : Flow.statement) -> s.Flow.stmt_name <> victim)
                  program.Flow.stmts;
            },
            List.remove_assoc victim schedule ))
    (movable_init program)

(* The verdict is right when its error rules are exactly the expected set
   and every error names a witness. *)
let verdict_ok kind diags =
  let errors = D.errors diags in
  List.sort_uniq compare (List.map (fun d -> d.D.rule) errors) = expected_rules kind
  && List.for_all (fun d -> d.D.witness <> None) errors
