(* The benchmark's own span recorder. Spans are taken from outside the
   program, around calls into each layer's public functions, so the
   program under test carries no benchmark instrumentation. Only the
   traced run turns it on; the recorder is single-domain (every traced
   decomposition runs in the calling domain). *)

type span = { id : int; name : string; parent : int; start : float; stop : float }

let enabled = ref false
let recorded : span list ref = ref []
let stack = ref [ 0 ]
let next_id = ref 1

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = List.hd !stack in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        stack := List.tl !stack;
        recorded := { id; name; parent; start; stop } :: !recorded)
      f
  end

let all () = List.rev !recorded

(* Wall-clock seconds of every span named [name], summed. *)
let total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
    0.0 !recorded

(* Per span name: (count, total seconds, self seconds). A span's self
   time is its duration minus the time its children cover; children of
   one span never overlap because the recorder is single-domain. *)
let by_name () =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      Hashtbl.replace child_time s.parent
        (d +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    !recorded;
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      let n, t, st = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (n + 1, t +. d, st +. self))
    !recorded;
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

let to_json () =
  let open Obs.Json in
  Obj
    [
      ( "spans",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("id", Int s.id);
                   ("name", String s.name);
                   ("parent", Int s.parent);
                   ("start_s", Float s.start);
                   ("end_s", Float s.stop);
                 ])
             (all ())) );
      ( "self_time",
        List
          (List.map
             (fun (name, (n, total, self)) ->
               Obj
                 [
                   ("name", String name);
                   ("count", Int n);
                   ("total_s", Float total);
                   ("self_s", Float self);
                 ])
             (by_name ())) );
    ]

(* The duration of each span named [name], in seconds. *)
let durations name =
  List.filter_map (fun s -> if s.name = name then Some (s.stop -. s.start) else None) !recorded
