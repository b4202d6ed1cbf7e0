(* Differential tests for the compiled LoopIR execution engine.

   The compiled engine ({!Loopir.Compiled}) must be observably
   indistinguishable from the tree-walking reference interpreter
   ({!Loopir.Interp}) — bit-identical buffers on success, agreement on
   error — across:

   - randomly generated loop-nest programs (qcheck), at Checked mode
     always, and additionally at Unchecked/Debug when the static
     verifier licenses them; beside the plain engine runs the probed
     one, whose probe must report exactly the sites, loop values and
     accesses a reference walk of the proc predicts;
   - the full 64-point compile-option matrix on a small programmatic
     kernel;
   - every kernel under [kernels/], on representative option sets.

   Plus unit tests for the verifier license itself (an out-of-bounds
   proc must be refused the unchecked fast path), the CFD_EXEC_DEBUG
   escape hatch, the persistent work pool, and the [~jobs] plumbing of
   the functional simulator.

   All randomized tests draw from the fixed suite seed ({!Test_seed}). *)

open Loopir

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Bit-exact comparison of run results                                 *)
(* ------------------------------------------------------------------ *)

let sort_bindings l = List.sort (fun (a, _) (b, _) -> compare a b) l

let buffers_identical got expected =
  let got = sort_bindings got and expected = sort_bindings expected in
  List.length got = List.length expected
  && List.for_all2
       (fun (n1, (b1 : float array)) (n2, b2) ->
         n1 = n2
         && Array.length b1 = Array.length b2
         && Array.for_all2
              (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
              b1 b2)
       got expected

type outcome = Ran of (string * float array) list | Failed of string

let run_interp proc inputs =
  match Interp.run_fresh proc ~inputs with
  | bindings -> Ran bindings
  | exception Interp.Error m -> Failed m

let run_compiled ~mode proc inputs =
  match Compiled.run_fresh ~mode proc ~inputs with
  | bindings -> Ran bindings
  | exception Compiled.Error m -> Failed m

(* ------------------------------------------------------------------ *)
(* The probed engine                                                   *)
(* ------------------------------------------------------------------ *)

(* Leaf statements in pre-order with their enclosing loop names,
   outermost first: the sites a probe must see at compile time. *)
let sites_of (proc : Prog.proc) =
  let rec go vars acc = function
    | Prog.For l -> List.fold_left (go (vars @ [ l.Prog.var ])) acc l.Prog.body
    | leaf -> (Array.of_list vars, leaf) :: acc
  in
  Array.of_list (List.rev (List.fold_left (go []) [] proc.Prog.body))

let rec n_leaves = function
  | Prog.For l -> List.fold_left (fun n s -> n + n_leaves s) 0 l.Prog.body
  | _ -> 1

let rec loads (e : Prog.fexpr) =
  match e with
  | Prog.Const _ | Prog.Scalar _ -> []
  | Prog.Load (a, ix) -> [ (a, ix) ]
  | Prog.Add (x, y) | Prog.Sub (x, y) | Prog.Mul (x, y) | Prog.Div (x, y) ->
      loads x @ loads y

(* One dynamic leaf execution: its site, the enclosing loop values
   (outermost first), the multiset of reads (sorted) and the writes. *)
type instance = {
  site : int;
  values : int array;
  reads : (string * int) list;
  writes : (string * int) list;
}

(* The reference walk: every leaf instance in execution order. Indices
   are affine in the loop variables, so the walk needs no data. *)
let walk (proc : Prog.proc) =
  let out = ref [] in
  let rec stmts site env body =
    ignore
      (List.fold_left
         (fun site s ->
           stmt site env s;
           site + n_leaves s)
         site body)
  and stmt site env = function
    | Prog.For l ->
        for v = l.Prog.lo to l.Prog.hi - 1 do
          stmts site ((l.Prog.var, v) :: env) l.Prog.body
        done
    | leaf ->
        let ix i = Ix.eval i (fun v -> List.assoc v env) in
        let value, writes =
          match leaf with
          | Prog.Store { array; index; value } | Prog.Accum { array; index; value }
            ->
              (value, [ (array, ix index) ])
          | Prog.Set_scalar { value; _ } | Prog.Acc_scalar { value; _ } ->
              (value, [])
          | Prog.For _ -> assert false
        in
        out :=
          {
            site;
            values = Array.of_list (List.rev_map snd env);
            reads = List.sort compare (List.map (fun (a, i) -> (a, ix i)) (loads value));
            writes;
          }
          :: !out
  in
  stmts 0 [] proc.Prog.body;
  List.rev !out

(* A probe that records what it sees. Per event it insists that an
   access belongs to the current instance's site and that nothing
   follows the instance's write; [check_sites] compares the compile-time
   sites with [sites_of], [check_instances] a successful run with
   [walk]. *)
let recording_probe ~what proc =
  let sites = ref [] and log = ref [] in
  let on_site ~site ~vars ~stmt = sites := (site, vars, stmt) :: !sites in
  let on_instance ~site ~values =
    log := { site; values; reads = []; writes = [] } :: !log
  in
  let on_access ~site ~buffer ~index ~write =
    match !log with
    | [] -> Alcotest.failf "%s: access to %s before any instance" what buffer
    | i :: rest ->
        if site <> i.site then
          Alcotest.failf "%s: access at site %d inside an instance of site %d"
            what site i.site;
        if i.writes <> [] then
          Alcotest.failf "%s: access to %s after the write at site %d" what
            buffer site;
        log :=
          (if write then { i with writes = [ (buffer, index) ] }
           else { i with reads = (buffer, index) :: i.reads })
          :: rest
  in
  let check_sites () =
    let expected = sites_of proc in
    let got = List.sort compare !sites in
    if List.length got <> Array.length expected then
      Alcotest.failf "%s: %d sites reported, %d leaves" what (List.length got)
        (Array.length expected);
    List.iteri
      (fun n (site, vars, stmt) ->
        let evars, estmt = expected.(n) in
        if site <> n || vars <> evars || stmt <> estmt then
          Alcotest.failf "%s: site %d does not match leaf %d in pre-order" what
            site n)
      got
  in
  let check_instances () =
    let got =
      List.rev_map (fun i -> { i with reads = List.sort compare i.reads }) !log
    in
    let expected = walk proc in
    if List.length got <> List.length expected then
      Alcotest.failf "%s: %d instances reported, %d executed" what
        (List.length got) (List.length expected);
    List.iteri
      (fun n (g, e) ->
        if g.site <> e.site || g.values <> e.values then
          Alcotest.failf "%s: instance %d has the wrong site or loop values" what n;
        if g.reads <> e.reads then
          Alcotest.failf "%s: instance %d (site %d) read the wrong multiset" what
            n e.site;
        if g.writes <> e.writes then
          Alcotest.failf "%s: instance %d (site %d) has the wrong writes" what n
            e.site)
      (List.combine got expected)
  in
  ({ Compiled.on_site; on_instance; on_access }, check_sites, check_instances)

let run_probed ~what ~mode proc inputs =
  let probe, check_sites, check_instances = recording_probe ~what proc in
  let t = Compiled.compile ~mode ~probe proc in
  check_sites ();
  Alcotest.(check bool) (what ^ ": probed") true (Compiled.probed t);
  let fr = Compiled.make_frame t in
  List.iter
    (fun (name, src) ->
      Array.blit src 0 (Compiled.buffer t fr name) 0 (Array.length src))
    inputs;
  match Compiled.run t fr with
  | () ->
      check_instances ();
      Ran
        (List.map
           (fun (p : Prog.param) -> (p.Prog.name, Compiled.buffer t fr p.Prog.name))
           proc.Prog.params)
  | exception Compiled.Error m -> Failed m

(* The differential heart: reference and every compiled engine must
   agree on outcome; on success the buffers must match bit for bit. When
   the static verifier licenses unchecked execution, the reference must
   not have failed a bounds check (that would be verifier unsoundness),
   and the unchecked runs must reproduce the reference bits. The probed
   engine runs beside the plain one in both modes, its probe checked
   against a reference walk on every successful run. *)
let check_differential ?(debug = true) ?(probed = true) ~what proc inputs =
  let reference = run_interp proc inputs in
  let mode = Analysis.Verify.execution_mode proc in
  let agree engine got =
    match (reference, got) with
    | Ran bi, Ran bc ->
        if not (buffers_identical bc bi) then
          Alcotest.failf "%s: %s run differs from interpreter" what engine
    | Failed _, Failed _ ->
        if mode = Compiled.Unchecked then
          Alcotest.failf
            "%s: verifier licensed unchecked execution but the reference \
             interpreter failed a dynamic check"
            what
    | Ran _, Failed m ->
        Alcotest.failf "%s: %s run errored (%s) but interpreter succeeded" what
          engine m
    | Failed m, Ran _ ->
        Alcotest.failf "%s: interpreter errored (%s) but %s run succeeded" what
          m engine
  in
  let engines mode =
    agree (if mode = Compiled.Checked then "checked" else "unchecked")
      (run_compiled ~mode proc inputs);
    if probed then
      agree
        (if mode = Compiled.Checked then "probed checked" else "probed unchecked")
        (run_probed ~what ~mode proc inputs)
  in
  engines Compiled.Checked;
  match reference with
  | Failed _ -> ()
  | Ran _ ->
      if mode = Compiled.Unchecked then engines Compiled.Unchecked;
      (* The debug leg replays the whole run through the interpreter, so
         callers skip it where the reference is expensive. *)
      if debug then agree "debug" (run_compiled ~mode:Compiled.Debug proc inputs)

(* ------------------------------------------------------------------ *)
(* Random loop-nest programs                                           *)
(* ------------------------------------------------------------------ *)

(* Generates procs that satisfy {!Prog.validate} — declared arrays,
   bound loop variables, non-empty loops, scalars set before read —
   but whose array indices may run out of bounds, so the Checked
   engine's error path is exercised against the interpreter's. *)

type spec = { proc : Prog.proc; inputs : (string * float array) list }

let gen_spec =
  QCheck.Gen.(
    let gen_value = int_range (-64) 64 >|= fun n -> float_of_int n /. 16. in
    let gen_ix bound =
      match bound with
      | [] -> int_range 0 5 >|= Ix.const
      | _ ->
          list_size
            (return (List.length bound))
            (frequency [ (3, return 0); (5, return 1); (1, return 2) ])
          >>= fun coeffs ->
          int_range 0 3 >|= fun const ->
          let terms =
            List.filter
              (fun (c, _) -> c <> 0)
              (List.map2 (fun c (v, _, _) -> (c, v)) coeffs bound)
          in
          Ix.of_terms terms const
    in
    let arrays = [ "a"; "b"; "c"; "t" ] in
    let rec gen_expr depth scalars bound =
      let leaf =
        [
          (2, gen_value >|= fun f -> Prog.Const f);
          ( 5,
            pair (oneofl arrays) (gen_ix bound) >|= fun (a, ix) ->
            Prog.Load (a, ix) );
        ]
        @
        if scalars = [] then []
        else [ (2, oneofl scalars >|= fun s -> Prog.Scalar s) ]
      in
      if depth = 0 then frequency leaf
      else
        frequency
          (leaf
          @ [
              ( 3,
                pair
                  (gen_expr (depth - 1) scalars bound)
                  (gen_expr (depth - 1) scalars bound)
                >>= fun (x, y) ->
                oneofl
                  [
                    Prog.Add (x, y);
                    Prog.Sub (x, y);
                    Prog.Mul (x, y);
                    Prog.Div (x, y);
                  ] );
            ])
    in
    let gen_write scalars bound =
      pair (oneofl [ "c"; "t" ])
        (pair (gen_ix bound) (gen_expr 2 scalars bound))
      >>= fun (a, (ix, e)) ->
      oneofl
        [
          Prog.Store { array = a; index = ix; value = e };
          Prog.Accum { array = a; index = ix; value = e };
        ]
    in
    (* Threads the set of initialized scalars through a statement
       sequence, mirroring [Prog.validate]'s own fold. *)
    let rec gen_stmts ~depth ~fuel bound scalars =
      if fuel = 0 then return ([], scalars)
      else
        gen_stmt ~depth bound scalars >>= fun (s, scalars') ->
        gen_stmts ~depth ~fuel:(fuel - 1) bound scalars' >|= fun (rest, out) ->
        (s :: rest, out)
    and gen_stmt ~depth bound scalars =
      let free =
        List.filter
          (fun v -> not (List.exists (fun (v', _, _) -> v = v') bound))
          [ "i"; "j"; "k" ]
      in
      let write = gen_write scalars bound >|= fun s -> (s, scalars) in
      let set =
        pair (oneofl [ "s0"; "s1" ]) (gen_expr 2 scalars bound)
        >|= fun (name, value) ->
        ( Prog.Set_scalar { name; value },
          if List.mem name scalars then scalars else name :: scalars )
      in
      let acc =
        pair (oneofl scalars) (gen_expr 2 scalars bound) >|= fun (name, value) ->
        (Prog.Acc_scalar { name; value }, scalars)
      in
      let forloop =
        oneofl free >>= fun v ->
        int_range 0 1 >>= fun lo ->
        int_range 1 3 >>= fun extent ->
        gen_stmts ~depth:(depth + 1) ~fuel:2 ((v, lo, lo + extent) :: bound)
          scalars
        >|= fun (body, _) ->
        (Prog.For { var = v; lo; hi = lo + extent; pragmas = []; body }, scalars)
      in
      frequency
        ([ (4, write); (2, set) ]
        @ (if scalars = [] then [] else [ (2, acc) ])
        @ if free = [] || depth >= 3 then [] else [ (4, forloop) ])
    in
    int_range 6 12 >>= fun sa ->
    int_range 6 12 >>= fun sb ->
    int_range 6 12 >>= fun sc ->
    int_range 6 12 >>= fun st ->
    gen_stmts ~depth:0 ~fuel:4 [] [] >>= fun (body, _) ->
    array_size (return sa) gen_value >>= fun da ->
    array_size (return sb) gen_value >|= fun db ->
    let proc =
      {
        Prog.name = "rand";
        params =
          [
            { Prog.name = "a"; size = sa; dir = Prog.In };
            { Prog.name = "b"; size = sb; dir = Prog.In };
            { Prog.name = "c"; size = sc; dir = Prog.Out };
          ];
        locals = [ ("t", st) ];
        (* The trailing store keeps the Out parameter written, as
           [Prog.validate] requires. *)
        body =
          body
          @ [
              Prog.Store
                {
                  array = "c";
                  index = Ix.const 0;
                  value = Prog.Load ("t", Ix.const 0);
                };
            ];
      }
    in
    { proc; inputs = [ ("a", da); ("b", db) ] })

let arb_spec =
  QCheck.make
    ~print:(fun spec -> Format.asprintf "%a" Prog.pp_proc spec.proc)
    gen_spec

let qcheck_random_procs =
  QCheck.Test.make ~name:"compiled = interpreter on random procs" ~count:300
    arb_spec
    (fun spec ->
      Prog.validate spec.proc;
      check_differential ~what:"random proc" spec.proc spec.inputs;
      true)

(* ------------------------------------------------------------------ *)
(* The full compile-option matrix on a programmatic kernel             *)
(* ------------------------------------------------------------------ *)

let options_of_bits bits =
  let bit i = (bits lsr i) land 1 = 1 in
  {
    Cfd_core.Compile.default_options with
    Cfd_core.Compile.factorize = bit 0;
    fuse_pointwise = bit 1;
    decoupled = bit 2;
    sharing = bit 3;
    pipeline_ii = (if bit 4 then Some 2 else Some 1);
    unroll = (if bit 5 then Some 2 else None);
  }

let random_array rand size =
  Array.init size (fun _ -> float_of_int (Random.State.int rand 129 - 64) /. 16.)

let differential_of_result ?debug ?probed ~what rand
    (r : Cfd_core.Compile.result) =
  let proc = r.Cfd_core.Compile.proc in
  let inputs =
    List.filter_map
      (fun (p : Prog.param) ->
        if p.Prog.dir = Prog.In then Some (p.Prog.name, random_array rand p.Prog.size)
        else None)
      proc.Prog.params
  in
  check_differential ?debug ?probed ~what proc inputs

let test_option_matrix () =
  let rand = Test_seed.rand () in
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:3 () in
  for bits = 0 to 63 do
    let r = Cfd_core.Compile.compile ~options:(options_of_bits bits) ast in
    differential_of_result
      ~what:(Printf.sprintf "inverse_helmholtz p=3 options=%02x" bits)
      rand r
  done

(* ------------------------------------------------------------------ *)
(* Every kernel under kernels/                                         *)
(* ------------------------------------------------------------------ *)

(* The paper's kernels are p=11: a full 64-point matrix per kernel would
   dominate the suite (the 64-point matrix runs at p=3 above), so each
   kernel runs the factorized baseline, every knob on top of it, the
   all-options point, and one unfactorized probe. Tree-walking the
   unfactorized 6-D contraction costs seconds per run, so the
   interpreter-replay debug leg is limited to the factorized points, and
   the probed leg, which logs every access, to the factorized baseline. *)
let kernel_option_bits = [ 0x01; 0x3f; 0x03; 0x05; 0x09; 0x11; 0x21; 0x00 ]

(* Under [dune runtest] the cwd is the test directory (the kernel
   sources are declared deps, one level up); under [dune exec] from the
   project root they are right here. *)
let kernels_dir () = if Sys.file_exists "../kernels" then "../kernels" else "kernels"

let kernel_files () =
  Sys.readdir (kernels_dir ())
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cfd")
  |> List.sort compare

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_kernel file () =
  let rand = Test_seed.rand () in
  let source = read_file (Filename.concat (kernels_dir ()) file) in
  List.iter
    (fun bits ->
      match
        Cfd_core.Compile.compile_source ~options:(options_of_bits bits) source
      with
      | Error m -> Alcotest.failf "%s options=%02x: %s" file bits m
      | Ok r ->
          (* The verifier licenses every shipped kernel for the unchecked
             fast path at the default factorized shape. *)
          if bits = 0x01 then
            Alcotest.(check bool)
              (Printf.sprintf "%s options=01 runs unchecked" file)
              true
              (Analysis.Verify.execution_mode r.Cfd_core.Compile.proc
              = Compiled.Unchecked);
          differential_of_result ~debug:(bits land 0x01 = 1)
            ~probed:(bits = 0x01)
            ~what:(Printf.sprintf "%s options=%02x" file bits)
            rand r)
    kernel_option_bits

(* ------------------------------------------------------------------ *)
(* The verifier license                                                *)
(* ------------------------------------------------------------------ *)

let clean_proc =
  {
    Prog.name = "clean";
    params = [ { Prog.name = "x"; size = 4; dir = Prog.Out } ];
    locals = [];
    body =
      [
        Prog.For
          {
            var = "i";
            lo = 0;
            hi = 4;
            pragmas = [];
            body =
              [
                Prog.Store
                  { array = "x"; index = Ix.var "i"; value = Prog.Const 1. };
              ];
          };
      ];
  }

let oob_proc =
  {
    clean_proc with
    Prog.name = "oob";
    body =
      [
        Prog.For
          {
            var = "i";
            lo = 0;
            hi = 5;
            pragmas = [];
            body =
              [
                Prog.Store
                  { array = "x"; index = Ix.var "i"; value = Prog.Const 1. };
              ];
          };
      ];
  }

let test_license_refused_on_bounds () =
  Alcotest.(check bool) "clean proc is licensed unchecked" true
    (Analysis.Verify.execution_mode clean_proc = Compiled.Unchecked);
  Alcotest.(check bool) "out-of-bounds proc falls back to checked" true
    (Analysis.Verify.execution_mode oob_proc = Compiled.Checked);
  (* And the checked fallback agrees with the interpreter that the
     program is wrong. *)
  (match run_compiled ~mode:Compiled.Checked oob_proc [] with
  | Failed _ -> ()
  | Ran _ -> Alcotest.fail "checked run accepted an out-of-bounds store");
  match run_interp oob_proc [] with
  | Failed _ -> ()
  | Ran _ -> Alcotest.fail "interpreter accepted an out-of-bounds store"

let test_debug_env_forces_debug () =
  Unix.putenv "CFD_EXEC_DEBUG" "1";
  let mode = Analysis.Verify.execution_mode clean_proc in
  Unix.putenv "CFD_EXEC_DEBUG" "0";
  Alcotest.(check bool) "CFD_EXEC_DEBUG forces debug mode" true
    (mode = Compiled.Debug);
  Alcotest.(check bool) "CFD_EXEC_DEBUG=0 restores the license" true
    (Analysis.Verify.execution_mode clean_proc = Compiled.Unchecked)

(* ------------------------------------------------------------------ *)
(* Persistent work pool                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_persistent_matches_map () =
  let items = List.init 100 Fun.id in
  let f i = if i mod 9 = 5 then failwith "boom" else (i * i) - 7 in
  let expected = Cfd_core.Pool.map ~jobs:1 f items in
  List.iter
    (fun jobs ->
      Cfd_core.Pool.with_pool ~jobs (fun pool ->
          (* Several batches through one pool: domains are reused, and
             each batch must still come back in input order. *)
          for _ = 1 to 3 do
            let got = Cfd_core.Pool.run pool f items in
            Alcotest.(check bool)
              (Printf.sprintf "pool run at %d jobs = sequential map" jobs)
              true
              (List.map2
                 (fun g e ->
                   match (g, e) with
                   | Ok a, Ok b -> a = b
                   | Error (ge : Cfd_core.Pool.error), Error ee ->
                       ge.Cfd_core.Pool.index = ee.Cfd_core.Pool.index
                   | _ -> false)
                 got expected
              |> List.for_all Fun.id)
          done))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Functional simulation: jobs plumbing                                *)
(* ------------------------------------------------------------------ *)

let small_system () =
  let r =
    Cfd_core.Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:3 ())
  in
  (r, Cfd_core.Compile.build_system ~force_k:2 ~force_m:4 ~n_elements:8 r)

let sim_inputs (sys : Sysgen.System.t) =
  let rand = Test_seed.rand () in
  let names =
    List.map
      (fun (tr : Sysgen.System.transfer) ->
        (tr.Sysgen.System.array, tr.Sysgen.System.bytes / 8))
      sys.Sysgen.System.host.Sysgen.System.per_element_in
  in
  let per_element =
    Array.init 8 (fun _ ->
        List.map (fun (n, size) -> (n, random_array rand size)) names)
  in
  fun e -> per_element.(e)

let test_functional_jobs_rejected () =
  let r, sys = small_system () in
  match
    Sim.Functional.run ~jobs:0 ~system:sys ~proc:r.Cfd_core.Compile.proc
      ~inputs:(sim_inputs sys) ~n:8 ()
  with
  | _ -> Alcotest.fail "expected Error on jobs:0"
  | exception Sim.Functional.Error m ->
      Alcotest.(check bool) "error names jobs" true
        (String.length m >= 4 && String.sub m 0 4 = "jobs")

let test_functional_jobs_equivalent () =
  let r, sys = small_system () in
  let inputs = sim_inputs sys in
  let run jobs =
    Sim.Functional.run ~jobs ~system:sys ~proc:r.Cfd_core.Compile.proc ~inputs
      ~n:7 (* padded tail: 7 elements across two 4-slot blocks *) ()
  in
  let seq = run 1 in
  List.iter
    (fun jobs ->
      let par = run jobs in
      Alcotest.(check int) "same element count" (Array.length seq)
        (Array.length par);
      Array.iteri
        (fun e bindings ->
          if not (buffers_identical bindings par.(e)) then
            Alcotest.failf "element %d differs between jobs:1 and jobs:%d" e
              jobs)
        seq)
    [ 2; 3 ]

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "compiled.differential",
      Test_seed.to_alcotest qcheck_random_procs
      :: case "full option matrix on p=3 inverse Helmholtz"
           test_option_matrix
      :: List.map
           (fun f -> case ("kernel " ^ f) (test_kernel f))
           (kernel_files ()) );
    ( "compiled.license",
      [
        case "bounds diagnostic refuses the unchecked fast path"
          test_license_refused_on_bounds;
        case "CFD_EXEC_DEBUG forces debug cross-checking"
          test_debug_env_forces_debug;
      ] );
    ( "compiled.pool",
      [ case "persistent pool = sequential map" test_pool_persistent_matches_map ] );
    ( "compiled.sim",
      [
        case "jobs:0 rejected" test_functional_jobs_rejected;
        case "jobs:N = jobs:1 on a padded-tail run"
          test_functional_jobs_equivalent;
      ] );
  ]
