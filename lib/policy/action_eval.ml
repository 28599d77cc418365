type community = int * int

type attrs = {
  local_pref : int option;
  med : int option;
  communities : community list;
  dpa : int option;
  prepends : Rz_net.Asn.t list;
}

let empty = { local_pref = None; med = None; communities = []; dpa = None; prepends = [] }

let pref_to_local_pref pref =
  let lp = 65535 - pref in
  if lp < 0 then 0 else if lp > 65535 then 65535 else lp

let parse_community text =
  let text = Rz_util.Strings.strip text in
  match Rz_util.Strings.uppercase text with
  | "NO_EXPORT" -> Ok (65535, 65281)
  | "NO_ADVERTISE" -> Ok (65535, 65282)
  | "NO_EXPORT_SUBCONFED" -> Ok (65535, 65283)
  | "BLACKHOLE" -> Ok (65535, 666)
  | "INTERNET" -> Ok (0, 0)
  | _ ->
    (match String.index_opt text ':' with
     | Some i ->
       let hi = String.sub text 0 i
       and lo = String.sub text (i + 1) (String.length text - i - 1) in
       (match (Rz_util.Strings.decimal hi, Rz_util.Strings.decimal lo) with
        | Some hi, Some lo when hi <= 65535 && lo <= 65535 ->
          Ok (hi, lo)
        | _ -> Error (Printf.sprintf "malformed community %S" text))
     | None -> Error (Printf.sprintf "malformed community %S" text))

let community_to_string (hi, lo) = Printf.sprintf "%d:%d" hi lo

let add_communities attrs values =
  let rec add acc = function
    | [] -> Ok (List.rev acc)
    | v :: rest ->
      (match parse_community v with
       | Error e -> Error e
       | Ok c -> add (if List.mem c acc then acc else c :: acc) rest)
  in
  match add (List.rev attrs.communities) values with
  | Ok communities -> Ok { attrs with communities }
  | Error e -> Error e

let delete_communities attrs values =
  let rec collect acc = function
    | [] -> Ok acc
    | v :: rest ->
      (match parse_community v with
       | Error e -> Error e
       | Ok c -> collect (c :: acc) rest)
  in
  match collect [] values with
  | Error e -> Error e
  | Ok to_delete ->
    Ok { attrs with communities = List.filter (fun c -> not (List.mem c to_delete)) attrs.communities }

let int_value attr text =
  match Rz_util.Strings.decimal (Rz_util.Strings.strip text) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s expects an integer, got %S" attr text)

let apply_one attrs (action : Ast.action) =
  match action with
  | Ast.Assign (attr, value) ->
    (match Rz_util.Strings.lowercase attr with
     | "pref" ->
       (match int_value "pref" value with
        | Ok pref -> Ok { attrs with local_pref = Some (pref_to_local_pref pref) }
        | Error e -> Error e)
     | "med" ->
       if Rz_util.Strings.equal_ci (Rz_util.Strings.strip value) "igp_cost" then
         Ok { attrs with med = None }
       else
         (match int_value "med" value with
          | Ok med -> Ok { attrs with med = Some med }
          | Error e -> Error e)
     | "dpa" ->
       (match int_value "dpa" value with
        | Ok dpa -> Ok { attrs with dpa = Some dpa }
        | Error e -> Error e)
     | "community" ->
       (* community = 65000:1 — replace the whole list *)
       (match parse_community value with
        | Ok c -> Ok { attrs with communities = [ c ] }
        | Error e -> Error e)
     | other -> Error (Printf.sprintf "unknown action attribute %S" other))
  | Ast.Append_op (attr, values) ->
    (match Rz_util.Strings.lowercase attr with
     | "community" -> add_communities attrs values
     | other -> Error (Printf.sprintf "%S does not support append" other))
  | Ast.Method_call (attr, meth, args) ->
    (match (Rz_util.Strings.lowercase attr, Rz_util.Strings.lowercase meth) with
     | "community", "append" -> add_communities attrs args
     | "community", "delete" -> delete_communities attrs args
     | "community", "=" -> add_communities { attrs with communities = [] } args
     | "aspath", "prepend" ->
       let rec parse acc = function
         | [] -> Ok (List.rev acc)
         | a :: rest ->
           (match Rz_net.Asn.of_string a with
            | Ok asn -> parse (asn :: acc) rest
            | Error e -> Error e)
       in
       (match parse [] args with
        | Ok asns -> Ok { attrs with prepends = attrs.prepends @ asns }
        | Error e -> Error e)
     | "community", "contains" ->
       Error "community.contains is a filter predicate, not an action"
     | attr, meth -> Error (Printf.sprintf "unknown action method %s.%s" attr meth))

let apply actions attrs =
  List.fold_left
    (fun acc action -> Result.bind acc (fun attrs -> apply_one attrs action))
    (Ok attrs) actions
