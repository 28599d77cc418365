module Json = Rz_json.Json
module Roa = Rz_rpki.Roa
module Status = Rz_verify.Status
module Report = Rz_verify.Report

let rpsl_classes =
  [ "verified"; "skipped"; "unrecorded"; "relaxed"; "safelisted";
    "unverified"; "excluded" ]

let rpki_states = [ "valid"; "invalid-origin"; "invalid-length"; "not-found" ]

let n_classes = List.length rpsl_classes
let n_states = List.length rpki_states

let index_of label labels kind =
  let rec go i = function
    | [] -> invalid_arg (Printf.sprintf "Rpki_cross: unknown %s %S" kind label)
    | l :: rest -> if String.equal l label then i else go (i + 1) rest
  in
  go 0 labels

let class_index label = index_of label rpsl_classes "RPSL class"
let state_index label = index_of label rpki_states "RPKI state"

type t = {
  cells : int array array;  (* rpsl class x rpki state *)
  mutable no_origin : int;
}

let create () =
  { cells = Array.make_matrix n_classes n_states 0; no_origin = 0 }

let add t ~rpsl state =
  let i = class_index rpsl in
  let j = state_index (Roa.state_to_string state) in
  t.cells.(i).(j) <- t.cells.(i).(j) + 1

let add_no_origin t = t.no_origin <- t.no_origin + 1

let cell t ~rpsl ~rpki = t.cells.(class_index rpsl).(state_index rpki)
let n_no_origin t = t.no_origin

let excluded_row = n_classes - 1

let total t =
  Array.fold_left (fun acc row -> acc + Array.fold_left ( + ) 0 row) 0 t.cells

let classified t = total t - Array.fold_left ( + ) 0 t.cells.(excluded_row)

(* Agreement: both systems accept, both have no data, or both reject.
   "skipped" expresses deliberate abstention on the RPSL side and
   "excluded" has no verdict at all, so neither row can agree. *)
let agree t =
  let v = state_index "valid"
  and io = state_index "invalid-origin"
  and il = state_index "invalid-length"
  and nf = state_index "not-found" in
  let row label = t.cells.(class_index label) in
  (row "verified").(v) + (row "relaxed").(v) + (row "safelisted").(v)
  + (row "unrecorded").(nf)
  + (row "unverified").(io) + (row "unverified").(il)

let verified_but_rpki_invalid t =
  let row = t.cells.(class_index "verified") in
  row.(state_index "invalid-origin") + row.(state_index "invalid-length")

let unrecorded_but_rpki_valid t =
  t.cells.(class_index "unrecorded").(state_index "valid")

let to_rows t =
  List.mapi
    (fun i label ->
      label :: Array.to_list (Array.map string_of_int t.cells.(i)))
    rpsl_classes

(* Integers only: the golden artifact must be bit-identical across
   machines, and float formatting is not. *)
let to_json t =
  Json.Obj
    [ ("matrix",
       Json.Obj
         (List.mapi
            (fun i cls ->
              ( cls,
                Json.Obj
                  (List.mapi
                     (fun j st -> (st, Json.Int t.cells.(i).(j)))
                     rpki_states) ))
            rpsl_classes));
      ("no_origin", Json.Int t.no_origin);
      ("total", Json.Int (total t));
      ("classified", Json.Int (classified t));
      ("agree", Json.Int (agree t));
      ("verified_but_rpki_invalid", Json.Int (verified_but_rpki_invalid t));
      ("unrecorded_but_rpki_valid", Json.Int (unrecorded_but_rpki_valid t))
    ]

(* Exact structural diff with dotted paths and no tolerances: the golden
   matrix is integer-only and deterministic, so any drift is a finding. *)
let diff_json ~baseline current =
  let out = ref [] in
  let emit path msg = out := Printf.sprintf "%s: %s" path msg :: !out in
  let leaf = function
    | Json.Null -> "null"
    | Json.Bool b -> string_of_bool b
    | Json.Int n -> string_of_int n
    | Json.Float f -> string_of_float f
    | Json.String s -> Printf.sprintf "%S" s
    | Json.List _ -> "<list>"
    | Json.Obj _ -> "<object>"
  in
  let rec walk path a b =
    match (a, b) with
    | Json.Obj fa, Json.Obj fb ->
      List.iter
        (fun (k, va) ->
          let p = if path = "" then k else path ^ "." ^ k in
          match List.assoc_opt k fb with
          | None -> emit p "missing in current"
          | Some vb -> walk p va vb)
        fa;
      List.iter
        (fun (k, _) ->
          if not (List.mem_assoc k fa) then
            emit (if path = "" then k else path ^ "." ^ k) "not in baseline")
        fb
    | Json.List la, Json.List lb ->
      let na = List.length la and nb = List.length lb in
      if na <> nb then
        emit path (Printf.sprintf "length %d, baseline %d" nb na)
      else
        List.iteri
          (fun i (va, vb) -> walk (Printf.sprintf "%s[%d]" path i) va vb)
          (List.combine la lb)
    | _ ->
      if not (Json.equal a b) then
        emit path (Printf.sprintf "%s, baseline %s" (leaf b) (leaf a))
  in
  walk "" baseline current;
  List.rev !out

let route_class = function
  | None -> "excluded"
  | Some (report : Report.route_report) ->
    let worst =
      List.fold_left
        (fun acc (hop : Report.hop) ->
          if Status.rank hop.status > Status.rank acc then hop.status else acc)
        Status.Verified report.hops
    in
    Status.class_label worst
