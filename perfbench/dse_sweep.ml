(* dse-sweep: the paper's exploration use, [cfdc explore] in-process.

   A cycle is one cold sweep — cleared polyhedral memo, fresh empty
   artifact store in a new directory — over the standard configurations
   of Inverse Helmholtz at p=11 for 50,000 elements, in a seeded order,
   with one domain per core and the pre-filter off (the CLI defaults);
   then warm re-sweeps for [1 / warm_share] of the run, each through a
   newly opened store on the same directory, as a second
   [cfdc explore --cache-dir] run would. A warm re-sweep takes well under
   a millisecond, so it gets a share of the run's time rather than a
   count: its samples then span seconds of every cycle instead of a few
   milliseconds after each cold sweep.
   Cold outcomes are checked against the hand-written expected file and
   warm outcomes against the cold ones. *)

open Cfd_core

let p = 11
let n_elements = 50_000
let warm_share = 8.0
let expected_file = Filename.concat "perfbench" (Filename.concat "expected" "dse_sweep.json")
let config = Sysgen.Replicate.default_config
let board = config.Sysgen.Replicate.board

type expected = {
  label : string;
  feasible : bool;
  max_replicas : int;
  plm_brams : int;
  seconds : float;
}

type t = {
  ast : Cfdlang.Ast.program;
  jobs : int;
  configurations : Explore.configuration list;  (** seeded order *)
  expected : expected list;
  pareto : string list;
  rel_tol : float;
  arm_seconds : float;  (** simulated ARM reference time *)
}

let load_expected () =
  let fail msg = failwith (expected_file ^ ": " ^ msg) in
  let json = match Obs.Json.of_file expected_file with Ok j -> j | Error e -> fail e in
  let field name j = match Obs.Json.member name j with Some v -> v | None -> fail ("missing " ^ name) in
  let num j = match j with Obs.Json.Float f -> f | Obs.Json.Int i -> float_of_int i | _ -> fail "not a number" in
  let int j = match j with Obs.Json.Int i -> i | _ -> fail "not an integer" in
  let str j = match j with Obs.Json.String s -> s | _ -> fail "not a string" in
  let list j = match j with Obs.Json.List l -> l | _ -> fail "not a list" in
  let config j =
    {
      label = str (field "label" j);
      feasible = (match field "feasible" j with Obs.Json.Bool b -> b | _ -> fail "feasible");
      max_replicas = int (field "max_replicas" j);
      plm_brams = int (field "plm_brams" j);
      seconds = num (field "seconds" j);
    }
  in
  if int (field "p" json) <> p || int (field "n_elements" json) <> n_elements then
    fail "written for another p or element count";
  ( List.map config (list (field "configurations" json)),
    List.map str (list (field "pareto" json)),
    num (field "seconds_rel_tol" json) )

let setup ~seed ~jobs =
  let ast = Cfdlang.Operators.inverse_helmholtz ~p () in
  let expected, pareto, rel_tol = load_expected () in
  (* The paper's configuration compiled once: its proc is what the
     execution-mode guard inspects. *)
  let r = Compile.compile ast in
  Guards.unchecked_engine r.Compile.proc;
  let arm =
    Sim.Perf.run_sw ~variant:`Reference
      ~flops_per_element:(Tensor.Helmholtz.flops_factorized p)
      ~n_elements ~board
  in
  {
    ast;
    jobs;
    configurations =
      Stats.shuffle (Random.State.make [| seed; 0xD5E |]) Explore.standard_configurations;
    expected;
    pareto;
    rel_tol;
    arm_seconds = arm.Sim.Perf.seconds;
  }

let label (o : Explore.outcome) = o.Explore.configuration.Explore.label

let check_expected t outcomes =
  let close a b = Float.abs (a -. b) <= t.rel_tol *. Float.abs b in
  let mismatch =
    List.find_map
      (fun e ->
        match List.find_opt (fun o -> label o = e.label) outcomes with
        | None -> Some (e.label ^ ": missing")
        | Some o ->
            if
              o.Explore.feasible = e.feasible
              && o.Explore.max_replicas = e.max_replicas
              && o.Explore.plm_brams = e.plm_brams
              && ((not e.feasible) || close o.Explore.seconds e.seconds)
            then None
            else
              Some
                (Printf.sprintf "%s: got feasible=%b m=%d plm=%d seconds=%.17g" e.label
                   o.Explore.feasible o.Explore.max_replicas o.Explore.plm_brams
                   o.Explore.seconds))
      t.expected
  in
  match mismatch with
  | Some m -> Error m
  | None ->
      let front = List.sort compare (List.map label (Explore.pareto outcomes)) in
      if List.length outcomes <> List.length t.expected then Error "unexpected configurations"
      else if front <> List.sort compare t.pareto then
        Error ("Pareto front " ^ String.concat " | " front)
      else Ok ()

let same_outcomes ~what reference outcomes =
  if outcomes = reference then Ok () else Error (what ^ " outcomes differ from the cold sweep")

(* Simulated ARM reference time over the best feasible simulated time. *)
let modeled_speedup t outcomes =
  let best =
    List.fold_left
      (fun acc (o : Explore.outcome) -> if o.Explore.feasible then Float.min acc o.Explore.seconds else acc)
      Float.infinity outcomes
  in
  t.arm_seconds /. best

let sweep ?cache ~jobs t =
  Explore.sweep ~jobs ~config ~configurations:t.configurations ?cache ~n_elements t.ast

(* --- untraced run -------------------------------------------------- *)

let run t ~seconds ~tick =
  let f = Outcome.failures () in
  let cold_s = ref [] and warm_ms = ref [] and speedup = ref 0.0 in
  let t0 = Unix.gettimeofday () in
  let last_cycle = ref 0.0 and cycles = ref 0 in
  while !cycles = 0 || Unix.gettimeofday () -. t0 +. !last_cycle <= seconds do
    let c0 = Unix.gettimeofday () in
    let dir = Work.fresh_dir () in
    tick ();
    Outcome.cold_start ();
    let cold, dt = Outcome.time (fun () -> sweep ~cache:(Cache.Store.create ~dir ()) ~jobs:t.jobs t) in
    cold_s := dt :: !cold_s;
    speedup := modeled_speedup t cold;
    Outcome.attempt f "cold sweep" (fun () -> check_expected t cold);
    let w0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. w0 < seconds /. warm_share do
      tick ();
      Outcome.cold_start ();
      let warm, dt = Outcome.time (fun () -> sweep ~cache:(Cache.Store.create ~dir ()) ~jobs:t.jobs t) in
      warm_ms := (dt *. 1000.0) :: !warm_ms;
      Outcome.attempt f "warm sweep" (fun () -> same_outcomes ~what:"warm" cold warm)
    done;
    Work.remove_dir dir;
    incr cycles;
    last_cycle := Unix.gettimeofday () -. c0
  done;
  Outcome.finish f
    ~metrics:
      [
        Outcome.metric "op_p50_ms" "ms" (Stats.median !cold_s *. 1000.0);
        Outcome.metric "op2_p50_ms" "ms" (Stats.median !warm_ms);
      ]
    ~details:
      [
        ("explore_cold_s", Outcome.timing ~unit_:"s" !cold_s);
        ("explore_warm_ms", Outcome.timing ~unit_:"ms" !warm_ms);
        ("modeled_speedup_vs_arm", Obs.Json.Float !speedup);
      ]

(* --- traced run ---------------------------------------------------- *)

let infeasible ?(plm_brams = 0) configuration diagnostic =
  {
    Explore.configuration;
    feasible = false;
    max_replicas = 0;
    plm_brams;
    resources = Fpga_platform.Resource.zero;
    seconds = Float.infinity;
    diagnostic = Some diagnostic;
  }

(* One configuration of [Explore.sweep] replayed layer by layer in the
   calling domain, as [Explore.prepare] and the simulation phase run it. *)
let decomposed t (c : Explore.configuration) =
  Spans.with_ "explore.config" (fun () ->
      let options = { c.Explore.options with Compile.static_check = false } in
      match Pipeline.compile_ast ~options t.ast with
      | exception e -> infeasible c (Printexc.to_string e)
      | r -> (
          let plm_brams = r.Compile.memory.Mnemosyne.Memgen.total_brams in
          match Analysis.Diagnostic.errors (Pipeline.check r) with
          | _ :: _ as errors ->
              infeasible ~plm_brams c
                ("static check failed: " ^ Analysis.Diagnostic.summary errors)
          | [] -> (
              match
                Spans.with_ "sysgen.build_system" (fun () ->
                    let sys = Compile.build_system ~config ~n_elements r in
                    Sysgen.System.validate sys;
                    sys)
              with
              | exception Sysgen.Replicate.Infeasible msg ->
                  infeasible ~plm_brams c ("infeasible: " ^ msg)
              | exception e -> infeasible ~plm_brams c (Printexc.to_string e)
              | sys ->
                  ignore
                    (Spans.with_ "cost.estimate" (fun () ->
                         Costing.estimate ~board ~system:sys r (Costing.static r)));
                  let hw = Spans.with_ "sim.perf" (fun () -> Sim.Perf.run_hw ~system:sys ~board) in
                  {
                    Explore.configuration = c;
                    feasible = true;
                    max_replicas = sys.Sysgen.System.solution.Sysgen.Replicate.m;
                    plm_brams;
                    resources = sys.Sysgen.System.total_resources;
                    seconds = hw.Sim.Perf.total_seconds;
                    diagnostic = None;
                  })))

let run_traced t ~seconds:_ =
  let f = Outcome.failures () in
  let dir = Work.fresh_dir () in
  (* The user path, cold, then one warm re-sweep with the cache layer's
     counters bracketed. *)
  Outcome.cold_start ();
  let cold, cold_wall = Outcome.time (fun () -> sweep ~cache:(Cache.Store.create ~dir ()) ~jobs:t.jobs t) in
  Outcome.attempt f "cold sweep" (fun () -> check_expected t cold);
  let disk_bytes = (Cache.Store.stats (Cache.Store.create ~dir ())).Cache.Store.st_disk_bytes in
  let counts () =
    Array.map Outcome.counter_value [| "cache.hits"; "cache.misses"; "compile.runs"; "verify.runs" |]
  in
  let before = counts () in
  Outcome.cold_start ();
  let warm = sweep ~cache:(Cache.Store.create ~dir ()) ~jobs:t.jobs t in
  let delta = Array.map2 (fun a b -> float_of_int (a - b)) (counts ()) before in
  Outcome.attempt f "warm sweep" (fun () -> same_outcomes ~what:"warm" cold warm);
  Work.remove_dir dir;
  (* The untraced sequential sweep the decomposition is compared with. *)
  Outcome.cold_start ();
  let seq, seq_wall = Outcome.time (fun () -> sweep ~jobs:1 t) in
  Outcome.attempt f "sequential sweep" (fun () -> check_expected t seq);
  Outcome.cold_start ();
  let poly_before = Pipeline.poly_counts () in
  Spans.enabled := true;
  let mine = List.map (decomposed t) t.configurations in
  Spans.enabled := false;
  let poly_delta = Array.map2 ( - ) (Pipeline.poly_counts ()) poly_before in
  Outcome.attempt f "decomposition" (fun () ->
      same_outcomes ~what:"sequential per-configuration decomposition" cold mine);
  let configs = Spans.durations "explore.config" in
  let config_sum = Stats.sum configs in
  let m = Outcome.metric in
  let hit_count = delta.(0) and miss_count = delta.(1) in
  Outcome.finish f
    ~metrics:(
      Pipeline.layer_metrics ~ms:(fun n -> Spans.total n *. 1000.0) ~share_of:config_sum
      @ Pipeline.poly_metrics ~ops:1 poly_delta
      @ [
          m "sysgen.build_system_s" "s" (Spans.total "sysgen.build_system");
          m "sim.perf_s" "s" (Spans.total "sim.perf");
          m "sim.perf.share" "ratio" (Spans.total "sim.perf" /. config_sum);
          m "explore.config_s.sum" "s" config_sum;
          m "explore.config_s.max" "s" (List.fold_left Float.max 0.0 configs);
          m "pool.efficiency" "ratio" (config_sum /. (float_of_int t.jobs *. cold_wall));
          m "cache.hits" "count" hit_count;
          m "cache.misses" "count" miss_count;
          m "cache.hit_ratio" "ratio" (hit_count /. Float.max 1.0 (hit_count +. miss_count));
          m "cache.disk_bytes" "bytes" (float_of_int disk_bytes);
          m "explore.warm_compile_runs" "count" delta.(2);
          m "explore.warm_verify_runs" "count" delta.(3);
          m "trace.overhead_ms" "ms" ((config_sum -. seq_wall) *. 1000.0);
        ])
    ~details:
      [
        ("explore_cold_s", Obs.Json.Float cold_wall);
        ("explore_seq_s", Obs.Json.Float seq_wall);
        ("modeled_speedup_vs_arm", Obs.Json.Float (modeled_speedup t cold));
      ]
