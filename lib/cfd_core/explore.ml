type configuration = { label : string; options : Compile.options }

type outcome = {
  configuration : configuration;
  feasible : bool;
  max_replicas : int;
  plm_brams : int;
  resources : Fpga_platform.Resource.t;
  seconds : float;
  diagnostic : string option;
}

let standard_configurations =
  let base = Compile.default_options in
  [
    { label = "factorized + decoupled + sharing"; options = base };
    {
      label = "factorized + decoupled, no sharing";
      options = { base with Compile.sharing = false };
    };
    {
      label = "factorized, temporaries in HLS";
      options = { base with Compile.decoupled = false; sharing = false };
    };
    {
      label = "direct contraction + sharing";
      options = { base with Compile.factorize = false };
    };
    {
      label = "factorized + sharing + unroll 2";
      options = { base with Compile.unroll = Some 2 };
    };
  ]

(* The content address of one configuration's sweep outcome: the compile
   key of its options over this source, extended with everything else
   the outcome depends on — the replication solver's inputs and the
   element count. The label is deliberately excluded (it names the
   point, it does not change it); a cached outcome is re-labeled with
   the caller's configuration on the way out. *)
let outcome_kind = "sweep-outcome"

let res_fp (r : Fpga_platform.Resource.t) =
  Printf.sprintf "%d/%d/%d/%d" r.Fpga_platform.Resource.lut
    r.Fpga_platform.Resource.ff r.Fpga_platform.Resource.dsp
    r.Fpga_platform.Resource.bram18

let outcome_key ~(config : Sysgen.Replicate.config) ~n_elements ast
    configuration =
  Compile.cache_key ~options:configuration.options ast
    ~extra:
      [
        ( "sweep",
          Printf.sprintf "n=%d board=%s reserve=%s glue=%s" n_elements
            config.Sysgen.Replicate.board.Fpga_platform.Board.board_name
            (res_fp config.Sysgen.Replicate.interface_reserve)
            (res_fp config.Sysgen.Replicate.glue_per_kernel) );
      ]

let infeasible ?(plm_brams = 0) configuration diagnostic =
  (* Structured, not printed: infeasible configurations are a normal
     part of a sweep, so this stays below the stderr mirror — but with
     the log level at [Info] (or the flight recorder on) each pruned
     config is visible with its options fingerprint and diagnostic. *)
  Obs.Log.info ~scope:"explore"
    ~attrs:[ ("options", Compile.options_fingerprint configuration.options) ]
    "config infeasible: %s" diagnostic;
  {
    configuration;
    feasible = false;
    max_replicas = 0;
    plm_brams;
    resources = Fpga_platform.Resource.zero;
    seconds = Float.infinity;
    diagnostic = Some diagnostic;
  }

(* One configuration in isolation: compile, verify exactly once, build
   and validate the system, and price it with the performance model.
   Any exception — an infeasible board, but also a crash anywhere in the
   pipeline — becomes an infeasible outcome carrying the diagnostic, so
   a single bad configuration can never abort the rest of the sweep. *)
let evaluate ?cache ~config ~n_elements ast configuration =
  (* The verifier runs exactly once per configuration, here: the compile
     itself goes with the embedded check off (a caller-supplied
     [static_check = true] would otherwise verify the same pipeline a
     second time inside [Compile.compile]), and a pipeline failing a
     proof is pruned as infeasible before any system is built. *)
  let options = { configuration.options with Compile.static_check = false } in
  match Compile.compile ?cache ~options ast with
  | exception e -> infeasible configuration (Printexc.to_string e)
  | r -> (
      let plm_brams = r.Compile.memory.Mnemosyne.Memgen.total_brams in
      match Analysis.Diagnostic.errors (Compile.check ?cache r) with
      | _ :: _ as errors ->
          infeasible ~plm_brams configuration
            ("static check failed: " ^ Analysis.Diagnostic.summary errors)
      | [] -> (
          match
            let sys = Compile.build_system ~config ~n_elements r in
            Sysgen.System.validate sys;
            let board = config.Sysgen.Replicate.board in
            (sys, Sim.Perf.run_hw ~system:sys ~board)
          with
          | sys, hw ->
              {
                configuration;
                feasible = true;
                max_replicas = sys.Sysgen.System.solution.Sysgen.Replicate.m;
                plm_brams;
                resources = sys.Sysgen.System.total_resources;
                seconds = hw.Sim.Perf.total_seconds;
                diagnostic = None;
              }
          | exception Sysgen.Replicate.Infeasible msg ->
              infeasible ~plm_brams configuration ("infeasible: " ^ msg)
          | exception Analysis.Cost.Invalid_shape msg ->
              infeasible ~plm_brams configuration ("invalid shape: " ^ msg)
          | exception e ->
              infeasible ~plm_brams configuration (Printexc.to_string e)))

let dominates a b =
  (* a dominates b: no worse on all three axes, strictly better on one *)
  a.resources.Fpga_platform.Resource.lut <= b.resources.Fpga_platform.Resource.lut
  && a.resources.Fpga_platform.Resource.bram18
     <= b.resources.Fpga_platform.Resource.bram18
  && a.seconds <= b.seconds
  && (a.resources.Fpga_platform.Resource.lut < b.resources.Fpga_platform.Resource.lut
     || a.resources.Fpga_platform.Resource.bram18
        < b.resources.Fpga_platform.Resource.bram18
     || a.seconds < b.seconds)

let sweep ?jobs ?(config = Sysgen.Replicate.default_config)
    ?(configurations = standard_configurations) ?cache ~n_elements ast =
  (* A warm start never changes what a sweep returns, only what it
     recomputes: cached outcomes are final per-configuration results,
     stored as each one settles so an interrupted sweep resumes where it
     died. Lookups run in the calling domain; only misses reach the
     pool. *)
  let find_cached configuration =
    match cache with
    | None -> None
    | Some store ->
        Option.map
          (fun o -> { o with configuration })
          (Cache.Store.find store ~kind:outcome_kind
             (outcome_key ~config ~n_elements ast configuration)
             ~decode:(Cache.Codec.decode ~kind:outcome_kind))
  in
  let store_outcome (o : outcome) =
    match cache with
    | None -> ()
    | Some store ->
        Cache.Store.store store ~kind:outcome_kind
          (outcome_key ~config ~n_elements ast o.configuration)
          ~encode:(Cache.Codec.encode ~kind:outcome_kind)
          o
  in
  let lookups = List.map (fun c -> (c, find_cached c)) configurations in
  let misses =
    List.filter_map (function c, None -> Some c | _ -> None) lookups
  in
  let fresh =
    Pool.map ?jobs
      (fun c ->
        let o = evaluate ?cache ~config ~n_elements ast c in
        store_outcome o;
        o)
      misses
    |> List.map2
         (fun configuration -> function
           | Ok o -> o
           | Error { Pool.message; _ } -> infeasible configuration message)
         misses
  in
  (* Cached outcomes and fresh evaluations, re-interleaved in input
     order. *)
  let rec stitch lookups fresh =
    match (lookups, fresh) with
    | [], _ -> []
    | (_, Some o) :: lookups, fresh -> o :: stitch lookups fresh
    | (_, None) :: lookups, o :: fresh -> o :: stitch lookups fresh
    | (_, None) :: _, [] -> assert false
  in
  stitch lookups fresh

let pareto outcomes =
  let feasible = List.filter (fun o -> o.feasible) outcomes in
  List.filter
    (fun o -> not (List.exists (fun other -> dominates other o) feasible))
    feasible

let pp_outcome ppf o =
  if o.feasible then
    Format.fprintf ppf "%-36s m=%2d PLM=%2d BRAM  %a  %.2f s"
      o.configuration.label o.max_replicas o.plm_brams
      Fpga_platform.Resource.pp o.resources o.seconds
  else
    Format.fprintf ppf "%-36s infeasible%s" o.configuration.label
      (match o.diagnostic with
      | Some d when d <> "" -> " (" ^ d ^ ")"
      | _ -> "")
