(* Order statistics over timing samples, and the seeded shuffle the
   workloads draw their input order with. *)

let sorted xs = List.sort compare xs

(* Nearest-rank quantile of a non-empty sample. *)
let quantile q xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = quantile 0.5 xs

(* The highest of the usual tail percentiles that still has at least ten
   samples beyond it, as (label, value); [None] below 40 samples. *)
let tail xs =
  let n = float_of_int (List.length xs) in
  List.find_map
    (fun (label, q) -> if n *. (1.0 -. q) >= 10.0 then Some (label, quantile q xs) else None)
    [ ("p99.9", 0.999); ("p99", 0.99); ("p95", 0.95); ("p90", 0.9); ("p75", 0.75) ]

let sum = List.fold_left ( +. ) 0.0

(* Fisher-Yates over [rng]. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a
