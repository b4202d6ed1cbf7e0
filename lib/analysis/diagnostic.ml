type severity = Error | Warning

type witness =
  | Instance of string * int array
  | Instance_pair of (string * int array) * (string * int array)
  | Element of string * int
  | Index of int * int
  | Intervals of Poly.Lex.interval * Poly.Lex.interval
  | Count of int * int

type t = {
  severity : severity;
  rule : string;
  subject : string;
  message : string;
  witness : witness option;
}

let error ~rule ~subject ?witness message =
  { severity = Error; rule; subject; message; witness }

let warning ~rule ~subject ?witness message =
  { severity = Warning; rule; subject; message; witness }

let is_error d = d.severity = Error
let errors = List.filter is_error
let warnings = List.filter (fun d -> d.severity = Warning)

let pp_point ppf p =
  Format.fprintf ppf "[%s]"
    (String.concat "," (Array.to_list (Array.map string_of_int p)))

(* The liveness bracket uses virtual first/last statements at
   [|min_int|] / [|max_int|]; print those symbolically. *)
let pp_ts ppf (ts : Poly.Lex.timestamp) =
  if Array.length ts = 1 && ts.(0) = min_int then Format.pp_print_string ppf "host-first"
  else if Array.length ts = 1 && ts.(0) = max_int then Format.pp_print_string ppf "host-last"
  else pp_point ppf ts

let pp_ival ppf (i : Poly.Lex.interval) =
  Format.fprintf ppf "[%a, %a]" pp_ts i.first pp_ts i.last

let pp_witness ppf = function
  | Instance (s, p) -> Format.fprintf ppf "%s%a" s pp_point p
  | Instance_pair ((s, p), (t, q)) ->
      Format.fprintf ppf "%s%a vs %s%a" s pp_point p t pp_point q
  | Element (a, off) -> Format.fprintf ppf "%s@@%d" a off
  | Index (ix, size) -> Format.fprintf ppf "index %d outside [0,%d)" ix size
  | Intervals (a, b) -> Format.fprintf ppf "%a overlaps %a" pp_ival a pp_ival b
  | Count (got, want) -> Format.fprintf ppf "counted %d, expected %d" got want

let severity_name = function Error -> "error" | Warning -> "warning"

let pp ppf d =
  Format.fprintf ppf "%s[%s] %s: %s" (severity_name d.severity) d.rule
    d.subject d.message;
  match d.witness with
  | None -> ()
  | Some w -> Format.fprintf ppf " (witness: %a)" pp_witness w

let to_json d =
  Obs.Json.Obj
    [
      ("severity", Obs.Json.String (severity_name d.severity));
      ("rule", Obs.Json.String d.rule);
      ("subject", Obs.Json.String d.subject);
      ("message", Obs.Json.String d.message);
    ]

let summary ds =
  let ne = List.length (errors ds) and nw = List.length (warnings ds) in
  let plural n = if n = 1 then "" else "s" in
  if ne = 0 && nw = 0 then "no diagnostics"
  else if nw = 0 then Format.sprintf "%d error%s" ne (plural ne)
  else if ne = 0 then Format.sprintf "%d warning%s" nw (plural nw)
  else Format.sprintf "%d error%s, %d warning%s" ne (plural ne) nw (plural nw)

let pp_report ppf ds =
  List.iter (fun d -> Format.fprintf ppf "%a@." pp d) ds;
  Format.fprintf ppf "%s@." (summary ds)
