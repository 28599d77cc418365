type family = Ipv4 | Ipv6 | Any_family
type subfamily = Unicast | Multicast | Any_sub
type t = { family : family; sub : subfamily }

let any = { family = Any_family; sub = Any_sub }

let parse s =
  let s = Rz_util.Strings.strip (Rz_util.Strings.lowercase s) in
  let family_of = function
    | "ipv4" -> Ok Ipv4
    | "ipv6" -> Ok Ipv6
    | "any" -> Ok Any_family
    | other -> Error (Printf.sprintf "unknown afi family %S" other)
  in
  let sub_of = function
    | "unicast" -> Ok Unicast
    | "multicast" -> Ok Multicast
    | "any" -> Ok Any_sub
    | other -> Error (Printf.sprintf "unknown afi subfamily %S" other)
  in
  match String.index_opt s '.' with
  | None ->
    (match family_of s with
     | Ok family -> Ok { family; sub = Any_sub }
     | Error e -> Error e)
  | Some i ->
    let fam = String.sub s 0 i and sub = String.sub s (i + 1) (String.length s - i - 1) in
    (match (family_of fam, sub_of sub) with
     | Ok family, Ok sub -> Ok { family; sub }
     | Error e, _ | _, Error e -> Error e)

let to_string { family; sub } =
  let f = match family with Ipv4 -> "ipv4" | Ipv6 -> "ipv6" | Any_family -> "any" in
  match sub with
  | Any_sub -> f
  | Unicast -> f ^ ".unicast"
  | Multicast -> f ^ ".multicast"

let matches_prefix { family; sub } p =
  let family_ok =
    match family with
    | Any_family -> true
    | Ipv4 -> Prefix.is_v4 p
    | Ipv6 -> Prefix.is_v6 p
  in
  let sub_ok = match sub with Multicast -> false | Unicast | Any_sub -> true in
  family_ok && sub_ok

let matches_any afis p =
  match afis with [] -> true | _ -> List.exists (fun afi -> matches_prefix afi p) afis

let equal a b = a = b
let pp fmt t = Format.pp_print_string fmt (to_string t)
