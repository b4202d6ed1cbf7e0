(* Device-cycle timeline: an event store whose timestamp domain is the
   performance model's cycle clock, not wall time. [Trace] answers
   "where did the host's microseconds go"; this store answers "where do
   the accelerator's cycles go" — phases (complete begin/end intervals
   on a named track) and counter samples, captured by the producer
   behind one branch and exported as a Chrome trace with one virtual
   tid per track.

   The gate is [Gate]'s timeline bit, which [Gate.any] masks out: that
   word also drives the host-flow producers ([Trace.with_span]), and
   enabling the cycle timeline must not start recording host spans. *)

type phase = {
  ph_track : string;
  ph_name : string;
  ph_start : int;
  ph_dur : int;
  ph_attrs : (string * string) list;
}

type sample = {
  sm_track : string;
  sm_series : string;
  sm_cycle : int;
  sm_value : int;
}

let set_enabled on = Gate.set Gate.timeline_bit on
let enabled () = Gate.timeline_on ()

(* One global store under a mutex: producers emit from the simulator's
   single-threaded model loop, so contention is nil; the lock only
   guards against a concurrent capture from another domain. *)
let lock = Mutex.create ()
let phases_rev : phase list ref = ref []
let samples_rev : sample list ref = ref []

let reset () =
  Mutex.protect lock (fun () ->
      phases_rev := [];
      samples_rev := [])

let phase ~track ~name ~start ~dur ?(attrs = []) () =
  if Gate.timeline_on () then
    Mutex.protect lock (fun () ->
        phases_rev :=
          { ph_track = track; ph_name = name; ph_start = start; ph_dur = dur;
            ph_attrs = attrs }
          :: !phases_rev)

let sample ~track ~series ~cycle ~value =
  if Gate.timeline_on () then
    Mutex.protect lock (fun () ->
        samples_rev :=
          { sm_track = track; sm_series = series; sm_cycle = cycle;
            sm_value = value }
          :: !samples_rev)

type capture = { cap_phases : phase list; cap_samples : sample list }

let capture () =
  Mutex.protect lock (fun () ->
      {
        cap_phases = List.rev !phases_rev;
        cap_samples = List.rev !samples_rev;
      })

let prefixed prefix c =
  let p t = prefix ^ "/" ^ t in
  {
    cap_phases =
      List.map (fun ph -> { ph with ph_track = p ph.ph_track }) c.cap_phases;
    cap_samples =
      List.map (fun s -> { s with sm_track = p s.sm_track }) c.cap_samples;
  }

let merge cs =
  {
    cap_phases = List.concat_map (fun c -> c.cap_phases) cs;
    cap_samples = List.concat_map (fun c -> c.cap_samples) cs;
  }

let tracks c =
  List.sort_uniq compare
    (List.map (fun p -> p.ph_track) c.cap_phases
    @ List.map (fun s -> s.sm_track) c.cap_samples)

let busy c track =
  List.fold_left
    (fun acc p -> if p.ph_track = track then acc + p.ph_dur else acc)
    0 c.cap_phases

let series_stats c =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let key = (s.sm_track, s.sm_series) in
      let peak, sum, n =
        Option.value (Hashtbl.find_opt tbl key) ~default:(min_int, 0, 0)
      in
      Hashtbl.replace tbl key (max peak s.sm_value, sum + s.sm_value, n + 1))
    c.cap_samples;
  (* sorted by (track, series) so downstream renderings are
     byte-deterministic no matter the sample interleaving *)
  List.sort compare
    (Hashtbl.fold
       (fun (t, series) (peak, sum, n) acc ->
         (t, series, peak, float_of_int sum /. float_of_int n) :: acc)
       tbl [])

(* --- Chrome trace export ------------------------------------------------ *)

(* Virtual tids are assigned over the *sorted* track-name list, and the
   events keep their (deterministic) emission order, so the rendered
   JSON is byte-identical across runs — the property the hit≡miss and
   jobs-equivalence assertions lean on. The ts field carries the cycle
   count directly; displayTimeUnit is nominal ("ns" = 1 cycle). *)
let chrome_events c =
  let tids = List.mapi (fun i t -> (t, i + 1)) (tracks c) in
  let tid t = List.assoc t tids in
  let meta =
    List.map
      (fun (t, id) ->
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int id);
            ("args", Json.Obj [ ("name", Json.String t) ]);
          ])
      tids
  in
  let phases =
    List.map
      (fun p ->
        Json.Obj
          ([
             ("name", Json.String p.ph_name);
             ("cat", Json.String "cycles");
             ("ph", Json.String "X");
             ("ts", Json.Int p.ph_start);
             ("dur", Json.Int p.ph_dur);
             ("pid", Json.Int 1);
             ("tid", Json.Int (tid p.ph_track));
           ]
          @
          match p.ph_attrs with
          | [] -> []
          | attrs ->
              [
                ( "args",
                  Json.Obj
                    (List.map (fun (k, v) -> (k, Json.String v)) attrs) );
              ]))
      c.cap_phases
  in
  let samples =
    List.map
      (fun s ->
        Json.Obj
          [
            ("name", Json.String s.sm_series);
            ("cat", Json.String "cycles");
            ("ph", Json.String "C");
            ("ts", Json.Int s.sm_cycle);
            ("pid", Json.Int 1);
            ("tid", Json.Int (tid s.sm_track));
            ("args", Json.Obj [ (s.sm_series, Json.Int s.sm_value) ]);
          ])
      c.cap_samples
  in
  meta @ phases @ samples

let chrome_trace c =
  Json.Obj
    [
      ("traceEvents", Json.List (chrome_events c));
      ("displayTimeUnit", Json.String "ns");
    ]
