(* sim-throughput: functional simulation of the whole system.

   Set-up compiles Inverse Helmholtz at p=11 once and draws a seeded
   pool of distinct input sets; element [e] reads set [e mod pool_size]
   by array index, so making inputs costs nothing inside the timed
   region. Each pass runs [Sim.Functional.run] with the sharded strategy
   over [n_elements] elements, at one domain per core (the default) and,
   every third pass, at one domain. Every output of every pass is
   compared with [Tensor.Helmholtz.factorized], the independent dense
   reference, never with the compiler under test. *)

open Cfd_core

let p = 11
let n_elements = 512
let pool_size = 64

(* Outputs may differ from the reference by floating-point reassociation
   only: at most [rel_tol] of the reference's largest magnitude. *)
let rel_tol = 1e-9

type t = {
  r : Compile.result;
  system : Sysgen.System.t;
  jobs : int;
  sets : (float array * float array * float array) array;  (** S, D, u *)
  inputs : (string * float array) list array;  (** [sets] as simulator bindings *)
  reference : float array array;
}

let setup ~seed ~jobs =
  let r = Compile.compile (Cfdlang.Operators.inverse_helmholtz ~p ()) in
  Guards.unchecked_engine r.Compile.proc;
  let system = Compile.build_system ~n_elements r in
  Sysgen.System.validate system;
  (* make_inputs draws S, D and u from seeds s, s+1, s+2. *)
  let drawn =
    Array.init pool_size (fun i -> Tensor.Helmholtz.make_inputs ~seed:(3 * ((seed * pool_size) + i)) p)
  in
  let arr = Tensor.Dense.to_array in
  let sets =
    Array.map
      (fun (i : Tensor.Helmholtz.inputs) ->
        (arr i.Tensor.Helmholtz.s, arr i.Tensor.Helmholtz.d, arr i.Tensor.Helmholtz.u))
      drawn
  in
  {
    r;
    system;
    jobs;
    sets;
    inputs = Array.map (fun (s, d, u) -> [ ("S", s); ("D", d); ("u", u) ]) sets;
    reference = Array.map (fun i -> arr (Tensor.Helmholtz.factorized i)) drawn;
  }

let close ~reference got =
  let scale = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 1.0 reference in
  Array.length got = Array.length reference
  && (let ok = ref true in
      Array.iteri
        (fun i x -> if Float.abs (x -. reference.(i)) > rel_tol *. scale then ok := false)
        got;
      !ok)

let check_pass t outs =
  if Array.length outs <> n_elements then Error "wrong element count"
  else
    let bad = ref None in
    Array.iteri
      (fun e bindings ->
        if !bad = None then
          match List.assoc_opt "v" bindings with
          | Some v when close ~reference:t.reference.(e mod pool_size) v -> ()
          | Some _ -> bad := Some (Printf.sprintf "element %d differs from the reference" e)
          | None -> bad := Some (Printf.sprintf "element %d has no output v" e))
      outs;
    match !bad with None -> Ok () | Some m -> Error m

let pass t ~jobs =
  Sim.Functional.run ~jobs ~strategy:Sim.Functional.Sharded ~system:t.system ~proc:t.r.Compile.proc
    ~inputs:(fun e -> t.inputs.(e mod pool_size))
    ~n:n_elements ()

(* --- untraced run -------------------------------------------------- *)

let run t ~seconds ~tick =
  let f = Outcome.failures () in
  let par_ms = ref [] and seq_ms = ref [] in
  let t0 = Unix.gettimeofday () in
  let i = ref 0 in
  while !i < 3 || Unix.gettimeofday () -. t0 < seconds do
    let jobs, samples = if !i mod 3 = 2 then (1, seq_ms) else (t.jobs, par_ms) in
    tick ();
    Outcome.cold_start ();
    let outs, dt = Outcome.time (fun () -> pass t ~jobs) in
    samples := (dt *. 1000.0) :: !samples;
    Outcome.attempt f (Printf.sprintf "pass %d (jobs %d)" !i jobs) (fun () -> check_pass t outs);
    incr i
  done;
  let par = Stats.median !par_ms in
  Outcome.finish f
    ~metrics:
      [ Outcome.metric "op_p50_ms" "ms" par; Outcome.metric "op2_p50_ms" "ms" (Stats.median !seq_ms) ]
    ~details:
      [
        ("n_elements", Obs.Json.Int n_elements);
        ("pass_ms", Outcome.timing ~unit_:"ms" !par_ms);
        ("pass_jobs1_ms", Outcome.timing ~unit_:"ms" !seq_ms);
        ("sim_elements_per_s", Obs.Json.Float (float_of_int n_elements /. (par /. 1000.0)));
      ]

(* --- traced run ---------------------------------------------------- *)

(* The compiled engine alone: one frame, one domain, inputs staged
   through the storage map outside the timed call. *)
let engine_leg t f ~budget =
  let exec = Compile.engine t.r in
  let frame = Loopir.Compiled.make_frame exec in
  let storage = t.r.Compile.memory.Mnemosyne.Memgen.storage in
  let buffer name =
    let b, off = Option.value ~default:(name, 0) (List.assoc_opt name storage) in
    (Loopir.Compiled.buffer exec frame b, off)
  in
  let us = ref [] and runs = ref 0 in
  let iters0 = Outcome.counter_value "exec.iterations.unchecked" in
  let t0 = Unix.gettimeofday () in
  while !runs < pool_size || Unix.gettimeofday () -. t0 < budget do
    let set = !runs mod pool_size in
    List.iter
      (fun (name, data) ->
        let buf, off = buffer name in
        Array.blit data 0 buf off (Array.length data))
      t.inputs.(set);
    let (), dt = Outcome.time (fun () -> Spans.with_ "loopir.compiled" (fun () -> Loopir.Compiled.run exec frame)) in
    us := (dt *. 1e6) :: !us;
    incr runs;
    Outcome.attempt f "engine run" (fun () ->
        let buf, off = buffer "v" in
        let reference = t.reference.(set) in
        if close ~reference (Array.sub buf off (Array.length reference)) then Ok ()
        else Error "engine output differs from the reference")
  done;
  (Stats.median !us, float_of_int (Outcome.counter_value "exec.iterations.unchecked" - iters0) /. float_of_int !runs)

let floor_leg t f ~budget =
  let w = Floor.work p in
  let v = Array.make (p * p * p) 0.0 in
  let us = ref [] and runs = ref 0 in
  let t0 = Unix.gettimeofday () in
  while !runs < pool_size || Unix.gettimeofday () -. t0 < budget do
    let set = !runs mod pool_size in
    let s, d, u = t.sets.(set) in
    let (), dt = Outcome.time (fun () -> Spans.with_ "floor" (fun () -> Floor.apply w ~s ~d ~u ~v)) in
    us := (dt *. 1e6) :: !us;
    incr runs;
    Outcome.attempt f "floor" (fun () ->
        if close ~reference:t.reference.(set) v then Ok ()
        else Error "hand-written floor differs from the reference")
  done;
  Stats.median !us

let run_traced t ~seconds =
  let f = Outcome.failures () in
  Spans.enabled := true;
  let engine_us, iterations = engine_leg t f ~budget:(seconds /. 5.0) in
  let floor_us = floor_leg t f ~budget:(seconds /. 5.0) in
  (* Functional passes: traced at one domain and at [jobs], and
     untraced at [jobs] for the trace overhead. *)
  let seq = ref [] and par = ref [] and plain = ref [] and dma = ref 0 in
  let t0 = Unix.gettimeofday () and budget = seconds *. 3.0 /. 5.0 in
  let i = ref 0 in
  while !i < 3 || Unix.gettimeofday () -. t0 < budget do
    let traced, jobs, samples =
      match !i mod 3 with 0 -> (true, 1, seq) | 1 -> (true, t.jobs, par) | _ -> (false, t.jobs, plain)
    in
    Spans.enabled := traced;
    Outcome.cold_start ();
    let bytes0 = Outcome.counter_value "sim.dma.bytes_in" + Outcome.counter_value "sim.dma.bytes_out" in
    let outs, dt = Outcome.time (fun () -> Spans.with_ "sim.functional" (fun () -> pass t ~jobs)) in
    dma := Outcome.counter_value "sim.dma.bytes_in" + Outcome.counter_value "sim.dma.bytes_out" - bytes0;
    samples := dt :: !samples;
    Outcome.attempt f "pass" (fun () -> check_pass t outs);
    incr i
  done;
  Spans.enabled := false;
  let n = float_of_int n_elements in
  let jobs1_us = Stats.median !seq *. 1e6 /. n in
  let speedup = Stats.median !seq /. Stats.median !par in
  let m = Outcome.metric in
  Outcome.finish f
    ~metrics:
      [
        m "loopir.compiled.us_per_element" "us" engine_us;
        m "exec.iterations_per_element" "count" iterations;
        m "loopir.ns_per_iteration" "ns" (engine_us *. 1000.0 /. iterations);
        m "floor.us_per_element" "us" floor_us;
        m "loopir.floor_ratio" "x" (engine_us /. floor_us);
        m "sim.functional.jobs1_us_per_element" "us" jobs1_us;
        m "sim.functional.overhead_share" "ratio" (1.0 -. (engine_us /. jobs1_us));
        m "sim.dma.bytes_per_element" "bytes" (float_of_int !dma /. n);
        m "parallel.speedup" "x" speedup;
        m "parallel.efficiency" "ratio" (speedup /. float_of_int t.jobs);
        m "trace.overhead_ms" "ms" ((Stats.median !par -. Stats.median !plain) *. 1000.0);
      ]
    ~details:
      [
        ("n_elements", Obs.Json.Int n_elements);
      ]
