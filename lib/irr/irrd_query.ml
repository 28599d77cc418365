module Ir = Rz_ir.Ir

type response =
  | Data of string
  | No_data
  | Not_found_key
  | Error_resp of string
  | Quit

let render = function
  | Data payload -> Printf.sprintf "A%d\n%s\nC\n" (String.length payload) payload
  | No_data -> "C\n"
  | Not_found_key -> "D\n"
  | Error_resp reason -> Printf.sprintf "F %s\n" reason
  | Quit -> ""

let space_join items = String.concat " " items

let data_or_empty = function [] -> No_data | items -> Data (space_join items)

(* ---------------- !g / !6 : origin prefixes ---------------- *)

let origin_prefixes db text ~v6 =
  match Rz_net.Asn.of_string text with
  | Error e -> Error_resp e
  | Ok asn ->
    if not (Db.origin_has_routes db asn) then Not_found_key
    else
      Db.origin_prefixes db asn
      |> List.filter (fun p -> if v6 then Rz_net.Prefix.is_v6 p else Rz_net.Prefix.is_v4 p)
      |> List.sort Rz_net.Prefix.compare
      |> List.map Rz_net.Prefix.to_string
      |> data_or_empty

(* ---------------- !i : set members ---------------- *)

let set_members db text =
  let name, recursive =
    match Rz_util.Strings.split_on_string ~sep:"," text with
    | [ name; "1" ] -> (Rz_util.Strings.strip name, true)
    | [ name ] -> (Rz_util.Strings.strip name, false)
    | _ -> (Rz_util.Strings.strip text, false)
  in
  let ir = Db.ir db in
  match Ir.find_as_set ir name with
  | Some set ->
    if recursive then
      Db.flatten_as_set db name
      |> Db.Asn_set.elements
      |> List.map Rz_net.Asn.to_string
      |> data_or_empty
    else
      data_or_empty
        (List.map Rz_net.Asn.to_string set.member_asns @ set.member_sets)
  | None ->
    (match Ir.find_route_set ir name with
     | Some set ->
       if recursive then
         Db.flatten_route_set db name
         |> List.map (fun (p, op) ->
                Rz_net.Prefix.to_string p ^ Rz_net.Range_op.to_string op)
         |> List.sort_uniq compare
         |> data_or_empty
       else
         data_or_empty
           (List.map
              (function
                | Ir.Rs_prefix (p, op) ->
                  Rz_net.Prefix.to_string p ^ Rz_net.Range_op.to_string op
                | Ir.Rs_set (child, op) -> child ^ Rz_net.Range_op.to_string op
                | Ir.Rs_asn (a, op) ->
                  Rz_net.Asn.to_string a ^ Rz_net.Range_op.to_string op)
              set.members)
     | None -> Not_found_key)

(* ---------------- !a : aggregated prefixes of a set ---------------- *)

let set_prefixes db text =
  let name, v6 =
    if String.length text > 0 && text.[0] = '6' then
      (Rz_util.Strings.strip (String.sub text 1 (String.length text - 1)), true)
    else (Rz_util.Strings.strip text, false)
  in
  if not (Db.as_set_exists db name) then Not_found_key
  else begin
    let members = Db.flatten_as_set db name in
    let prefixes =
      Db.Asn_set.fold
        (fun asn acc -> List.rev_append (Db.origin_prefixes db asn) acc)
        members []
      |> List.filter (fun p -> if v6 then Rz_net.Prefix.is_v6 p else Rz_net.Prefix.is_v4 p)
      |> Rz_net.Prefix_agg.aggregate
    in
    data_or_empty (List.map Rz_net.Prefix.to_string prefixes)
  end

(* ---------------- rendering objects back to RPSL ---------------- *)

let render_aut_num (an : Ir.aut_num) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "aut-num:        %s\n" (Rz_net.Asn.to_string an.asn));
  if an.as_name <> "" then
    Buffer.add_string buf (Printf.sprintf "as-name:        %s\n" an.as_name);
  List.iter
    (fun rule ->
      let text = Rz_policy.Ast.rule_to_string rule in
      match String.index_opt text ':' with
      | Some i ->
        Buffer.add_string buf
          (Printf.sprintf "%-15s %s\n"
             (String.sub text 0 (i + 1))
             (Rz_util.Strings.strip
                (String.sub text (i + 1) (String.length text - i - 1))))
      | None -> Buffer.add_string buf (text ^ "\n"))
    (an.imports @ an.exports);
  List.iter
    (fun m -> Buffer.add_string buf (Printf.sprintf "member-of:      %s\n" m))
    an.member_of;
  List.iter
    (fun m -> Buffer.add_string buf (Printf.sprintf "mnt-by:         %s\n" m))
    an.mnt_by;
  Buffer.add_string buf (Printf.sprintf "source:         %s" an.source);
  Buffer.contents buf

let render_as_set (s : Ir.as_set) =
  let members =
    List.map Rz_net.Asn.to_string s.member_asns
    @ s.member_sets
    @ (if s.contains_any then [ "ANY" ] else [])
  in
  String.concat "\n"
    ([ Printf.sprintf "as-set:         %s" s.name ]
     @ (if members = [] then [] else [ Printf.sprintf "members:        %s" (String.concat ", " members) ])
     @ (if s.mbrs_by_ref = [] then []
        else [ Printf.sprintf "mbrs-by-ref:    %s" (String.concat ", " s.mbrs_by_ref) ])
     @ [ Printf.sprintf "source:         %s" s.source ])

(* One route object: class [route] for an IPv4 prefix, [route6] for
   IPv6, as the registry stores them. *)
let render_route prefix origin =
  Printf.sprintf "%-16s%s\norigin:         %s"
    (if Rz_net.Prefix.is_v4 prefix then "route:" else "route6:")
    (Rz_net.Prefix.to_string prefix) (Rz_net.Asn.to_string origin)

let render_route_set (s : Ir.route_set) =
  let member = function
    | Ir.Rs_prefix (p, op) -> Rz_net.Prefix.to_string p ^ Rz_net.Range_op.to_string op
    | Ir.Rs_set (child, op) -> child ^ Rz_net.Range_op.to_string op
    | Ir.Rs_asn (a, op) -> Rz_net.Asn.to_string a ^ Rz_net.Range_op.to_string op
  in
  String.concat "\n"
    ([ Printf.sprintf "route-set:      %s" s.name ]
     @ (if s.members = [] then []
        else
          [ Printf.sprintf "members:        %s" (String.concat ", " (List.map member s.members)) ])
     @ [ Printf.sprintf "source:         %s" s.source ])

let object_query db text =
  match Rz_util.Strings.split_on_string ~sep:"," text with
  | [ cls; key ] ->
    let cls = Rz_util.Strings.lowercase (Rz_util.Strings.strip cls) in
    let key = Rz_util.Strings.strip key in
    let ir = Db.ir db in
    (match cls with
     | "aut-num" ->
       (match Result.to_option (Rz_net.Asn.of_string key) with
        | Some asn ->
          (match Ir.find_aut_num ir asn with
           | Some an -> Data (render_aut_num an)
           | None -> Not_found_key)
        | None -> Error_resp "malformed ASN")
     | "as-set" ->
       (match Ir.find_as_set ir key with
        | Some s -> Data (render_as_set s)
        | None -> Not_found_key)
     | "route-set" ->
       (match Ir.find_route_set ir key with
        | Some s -> Data (render_route_set s)
        | None -> Not_found_key)
     | "route" | "route6" ->
       (match Rz_net.Prefix.of_string key with
        | Ok prefix ->
          (match Db.exact_origins db prefix with
           | [] -> Not_found_key
           | origins ->
             Data (String.concat "\n\n" (List.map (render_route prefix) origins)))
        | Error e -> Error_resp e)
     | other -> Error_resp (Printf.sprintf "unsupported object class %S" other))
  | _ -> Error_resp "expected !mTYPE,KEY"

(* ---------------- !r : route lookup ---------------- *)

let route_query db text =
  let prefix_text, mode =
    match Rz_util.Strings.split_on_string ~sep:"," text with
    | [ p; m ] -> (Rz_util.Strings.strip p, Rz_util.Strings.strip m)
    | _ -> (Rz_util.Strings.strip text, "")
  in
  match Rz_net.Prefix.of_string prefix_text with
  | Error e -> Error_resp e
  | Ok prefix ->
    let entries =
      match mode with
      | "l" -> Db.covering_routes db prefix
      | "" | "o" -> List.map (fun o -> (prefix, o)) (Db.exact_origins db prefix)
      | _ -> []
    in
    (match entries with
     | [] -> Not_found_key
     | entries ->
       if mode = "o" then
         data_or_empty (List.map (fun (_, o) -> Rz_net.Asn.to_string o) entries)
       else
         Data
           (String.concat "\n"
              (List.map
                 (fun (p, o) ->
                   Printf.sprintf "%s %s" (Rz_net.Prefix.to_string p)
                     (Rz_net.Asn.to_string o))
                 entries)))

(* ---------------- plain whois fallback ---------------- *)

let plain_query db text =
  let ir = Db.ir db in
  let sections = ref [] in
  (match Result.to_option (Rz_net.Asn.of_string text) with
   | Some asn when Rz_util.Strings.starts_with_ci ~prefix:"AS" text ->
     (match Ir.find_aut_num ir asn with
      | Some an -> sections := render_aut_num an :: !sections
      | None -> ())
   | _ -> ());
  (match Ir.find_as_set ir text with
   | Some s -> sections := render_as_set s :: !sections
   | None -> ());
  (match Ir.find_route_set ir text with
   | Some s -> sections := render_route_set s :: !sections
   | None -> ());
  (match Rz_net.Prefix.of_string text with
   | Ok prefix ->
     List.iter
       (fun o -> sections := render_route prefix o :: !sections)
       (Db.exact_origins db prefix)
   | Error _ -> ());
  match List.rev !sections with
  | [] -> Not_found_key
  | sections -> Data (String.concat "\n\n" sections)

let c_query_errors = Rz_obs.Obs.Counter.make "irrd.query_errors"

let answer_unguarded db line =
  let line = Rz_util.Strings.strip line in
  if line = "" then No_data
  else if line = "!q" then Quit
  else if String.length line >= 2 && line.[0] = '!' then begin
    let arg = String.sub line 2 (String.length line - 2) in
    match line.[1] with
    | 'g' -> origin_prefixes db arg ~v6:false
    | '6' -> origin_prefixes db arg ~v6:true
    | 'i' -> set_members db arg
    | 'a' -> set_prefixes db arg
    | 'm' -> object_query db arg
    | 'r' -> route_query db arg
    | 'n' -> No_data (* client identification, acknowledged *)
    | c -> Error_resp (Printf.sprintf "unsupported query !%c" c)
  end
  else plain_query db line

(* Query text arrives from the network, so the dispatcher is total: any
   handler exception becomes an F response instead of tearing down the
   session (and is counted — a nonzero [irrd.query_errors] in production
   would mean a handler bug worth chasing). *)
let answer db line =
  try answer_unguarded db line
  with e ->
    Rz_obs.Obs.Counter.incr c_query_errors;
    Error_resp ("internal error: " ^ Printexc.to_string e)
