type t = { dom : Space.t; cod : Space.t; exprs : Aff.t array }

let make dom cod exprs =
  if Array.length exprs <> Space.arity cod then
    invalid_arg "Aff_map.make: one expression per codomain dimension required";
  Array.iter
    (fun e ->
      if Aff.arity e <> Space.arity dom then
        invalid_arg "Aff_map.make: expression arity differs from domain")
    exprs;
  { dom; cod; exprs = Array.copy exprs }

let identity space =
  let n = Space.arity space in
  { dom = space; cod = space; exprs = Array.init n (Aff.var n) }

let constant dom cod point =
  if Array.length point <> Space.arity cod then
    invalid_arg "Aff_map.constant: point arity mismatch";
  let n = Space.arity dom in
  { dom; cod; exprs = Array.map (Aff.const n) point }

let dom t = t.dom
let cod t = t.cod
let exprs t = Array.copy t.exprs

let apply t point = Array.map (fun e -> Aff.eval e point) t.exprs

let compose g f =
  if Space.arity f.cod <> Space.arity g.dom then
    invalid_arg "Aff_map.compose: domain/codomain arity mismatch";
  let n = Space.arity f.dom in
  let subst e =
    let acc = ref (Aff.const n (Aff.constant e)) in
    Array.iteri
      (fun j fj ->
        let c = Aff.coeff e j in
        if c <> 0 then acc := Aff.add !acc (Aff.scale c fj))
      f.exprs;
    !acc
  in
  { dom = f.dom; cod = g.cod; exprs = Array.map subst g.exprs }

let concat_outputs ?cod f g =
  if Space.arity f.dom <> Space.arity g.dom then
    invalid_arg "Aff_map.concat_outputs: domain arity mismatch";
  let cod = match cod with Some c -> c | None -> Space.concat f.cod g.cod in
  { dom = f.dom; cod; exprs = Array.append f.exprs g.exprs }

let select_outputs t keep cod =
  if List.length keep <> Space.arity cod then
    invalid_arg "Aff_map.select_outputs: codomain arity mismatch";
  let exprs = Array.of_list (List.map (fun k -> t.exprs.(k)) keep) in
  { dom = t.dom; cod; exprs }

let graph_constraints t =
  let nin = Space.arity t.dom and nout = Space.arity t.cod in
  let n = nin + nout in
  List.init nout (fun k ->
      let lhs = Aff.var n (nin + k) in
      let rhs = Aff.shift t.exprs.(k) 0 n in
      Basic_set.Eq (Aff.sub lhs rhs))

let image t bset =
  if Space.arity (Basic_set.space bset) <> Space.arity t.dom then
    invalid_arg "Aff_map.image: set space mismatch";
  let nin = Space.arity t.dom and nout = Space.arity t.cod in
  let concat_space = Space.concat t.dom t.cod in
  let dom_constrs =
    List.map
      (function
        | Basic_set.Eq e -> Basic_set.Eq (Aff.extend e nout)
        | Basic_set.Ge e -> Basic_set.Ge (Aff.extend e nout))
      (Basic_set.constraints bset)
  in
  let graph = graph_constraints t in
  let combined = Basic_set.of_constraints concat_space (dom_constrs @ graph) in
  Basic_set.project_out combined (List.init nin Fun.id) t.cod

let image_points t bset =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let q = apply t p in
      if not (Hashtbl.mem tbl q) then Hashtbl.add tbl q ())
    (Basic_set.enumerate bset);
  Hashtbl.fold (fun p () acc -> p :: acc) tbl []

(* Injectivity over the bounding box of [bset], decided from the
   coefficients alone. Only dimensions with extent > 1 vary; the map is
   injective when each varying dimension is the only varying term of some
   output (read it back from that output), or, for a 1-D map, when the
   strides sorted by magnitude form a mixed radix: each exceeds the span
   of all smaller ones, so the largest stride whose digits differ
   dominates every smaller difference. *)
let injective_closed_form t bset =
  match Basic_set.bounding_box bset with
  | None -> false
  | Some box when Array.exists (fun (lo, hi) -> lo > hi) box -> true
  | Some box ->
      let varying =
        List.filter (fun i -> fst box.(i) < snd box.(i)) (List.init (Array.length box) Fun.id)
      in
      let sole i e =
        Aff.coeff e i <> 0 && List.for_all (fun j -> j = i || Aff.coeff e j = 0) varying
      in
      let rec radix span = function
        | [] -> true
        | (stride, i) :: rest ->
            stride > span && radix (span + (stride * (snd box.(i) - fst box.(i)))) rest
      in
      List.for_all (fun i -> Array.exists (sole i) t.exprs) varying
      ||
      match t.exprs with
      | [| e |] ->
          radix 0 (List.sort compare (List.map (fun i -> (abs (Aff.coeff e i), i)) varying))
      | _ -> false

let is_injective_on t bset =
  injective_closed_form t bset
  ||
  let seen = Hashtbl.create 64 in
  List.for_all
    (fun p ->
      let q = apply t p in
      if Hashtbl.mem seen q then false
      else begin
        Hashtbl.add seen q ();
        true
      end)
    (Basic_set.enumerate bset)

let equal a b =
  Space.equal a.dom b.dom && Space.equal a.cod b.cod
  && Array.length a.exprs = Array.length b.exprs
  && Array.for_all2 Aff.equal a.exprs b.exprs

let pp ppf t =
  let names = Space.dim_names t.dom in
  Format.fprintf ppf "{ %a -> %s[%s] }" Space.pp t.dom (Space.name t.cod)
    (String.concat ", "
       (Array.to_list
          (Array.map (fun e -> Format.asprintf "%a" (Aff.pp ~names) e) t.exprs)))
