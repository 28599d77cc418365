type segment =
  | Seq of Rz_net.Asn.t
  | Set of Rz_net.Asn.t list

type t = {
  prefix : Rz_net.Prefix.t;
  path : segment list;
}

let make prefix asns = { prefix; path = List.map (fun a -> Seq a) asns }

let contains_as_set t =
  List.exists (function Set _ -> true | Seq _ -> false) t.path

let origin t =
  match List.rev t.path with
  | Seq asn :: _ -> Some asn
  | _ -> None

let dedup_path t =
  let plain = List.filter_map (function Seq a -> Some a | Set _ -> None) t.path in
  let rec dedup = function
    | a :: (b :: _ as rest) -> if a = b then dedup rest else a :: dedup rest
    | l -> l
  in
  dedup plain

let segment_to_string = function
  | Seq a -> string_of_int a
  | Set asns -> "{" ^ String.concat "," (List.map string_of_int asns) ^ "}"

let to_line t =
  Printf.sprintf "%s|%s"
    (Rz_net.Prefix.to_string t.prefix)
    (String.concat " " (List.map segment_to_string t.path))

let parse_segment word =
  if String.length word >= 2 && word.[0] = '{' && word.[String.length word - 1] = '}' then
    let inner = String.sub word 1 (String.length word - 2) in
    let parts = String.split_on_char ',' inner |> List.filter (fun s -> s <> "") in
    let asns = List.map Rz_net.Asn.of_decimal parts in
    if List.for_all Option.is_some asns then Some (Set (List.map Option.get asns))
    else None
  else
    Option.map (fun a -> Seq a) (Rz_net.Asn.of_decimal word)

let of_line line =
  match String.index_opt line '|' with
  | None -> Error (Printf.sprintf "route line %S is missing |" line)
  | Some i ->
    let prefix_s = String.sub line 0 i in
    let path_s = String.sub line (i + 1) (String.length line - i - 1) in
    (match Rz_net.Prefix.of_string prefix_s with
     | Error e -> Error e
     | Ok prefix ->
       let words = Rz_util.Strings.split_words path_s in
       let segments = List.map parse_segment words in
       if List.for_all Option.is_some segments then
         Ok { prefix; path = List.map Option.get segments }
       else Error (Printf.sprintf "bad AS-path in %S" line))

let pp fmt t = Format.pp_print_string fmt (to_line t)
let equal a b = a = b
