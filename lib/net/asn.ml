type t = int

let min_value = 0
let max_value = 4294967295

let in_range n = n >= min_value && n <= max_value

let of_string s =
  let s = Rz_util.Strings.strip s in
  let body =
    if String.length s >= 2 && (s.[0] = 'A' || s.[0] = 'a') && (s.[1] = 'S' || s.[1] = 's')
    then String.sub s 2 (String.length s - 2)
    else s
  in
  if body = "" then Error "empty ASN"
  else
    match String.index_opt body '.' with
    | Some i ->
      let hi = String.sub body 0 i and lo = String.sub body (i + 1) (String.length body - i - 1) in
      (match (Rz_util.Strings.decimal hi, Rz_util.Strings.decimal lo) with
       | Some hi, Some lo when hi >= 0 && hi <= 65535 && lo >= 0 && lo <= 65535 ->
         Ok ((hi lsl 16) lor lo)
       | _ -> Error (Printf.sprintf "malformed asdot ASN %S" s))
    | None ->
      (match Rz_util.Strings.decimal body with
       | Some n when in_range n -> Ok n
       | Some _ -> Error (Printf.sprintf "ASN out of range %S" s)
       | None -> Error (Printf.sprintf "malformed ASN %S" s))

let of_decimal s =
  match Rz_util.Strings.decimal s with Some n when in_range n -> Some n | _ -> None

let of_string_exn s =
  match of_string s with Ok n -> n | Error msg -> invalid_arg msg

let to_string n = "AS" ^ string_of_int n

let is_private n =
  (n >= 64512 && n <= 65534) || (n >= 4200000000 && n <= 4294967294)

let is_reserved n = n = 0 || n = 23456 || n = 65535 || n = 4294967295
let compare = Int.compare
let equal = Int.equal
let pp fmt n = Format.pp_print_string fmt (to_string n)
