type t = {
  cls : string;
  name : string;
  attrs : Attr.t list;
  line : int;
}

let values t key =
  let key = Rz_util.Strings.lowercase key in
  List.filter_map
    (fun (a : Attr.t) -> if a.key = key then Some a.value else None)
    t.attrs

let value t key = match values t key with [] -> None | v :: _ -> Some v

let pp fmt t =
  List.iter (fun (a : Attr.t) -> Format.fprintf fmt "%s:%s%s@." a.key
                (if a.value = "" then "" else " ") a.value)
    t.attrs
