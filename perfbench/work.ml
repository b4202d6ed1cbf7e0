(* Scratch space for a run, inside the checkout the benchmark runs from:
   [.perfbench/work/], emptied when the run ends. *)

let root = Filename.concat ".perfbench" "work"
let counter = ref 0

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec remove_dir d =
  if Sys.file_exists d then begin
    Array.iter
      (fun e ->
        let path = Filename.concat d e in
        if Sys.is_directory path then remove_dir path else Sys.remove path)
      (Sys.readdir d);
    Sys.rmdir d
  end

(* A new, empty directory for one artifact store. *)
let fresh_dir () =
  incr counter;
  let d = Filename.concat root (Printf.sprintf "%d-%d" (Unix.getpid ()) !counter) in
  remove_dir d;
  mkdir_p d;
  d
