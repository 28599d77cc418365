type addr = V4 of Ipaddr.V4.t | V6 of Ipaddr.V6.t
type t = { addr : addr; len : int }

let v4 a len =
  if len < 0 || len > 32 then invalid_arg "Prefix.v4: bad length";
  { addr = V4 (Ipaddr.V4.mask a len); len }

let v6 a len =
  if len < 0 || len > 128 then invalid_arg "Prefix.v6: bad length";
  { addr = V6 (Ipaddr.V6.mask a len); len }

let of_string s =
  let s = Rz_util.Strings.strip s in
  match String.index_opt s '/' with
  | None -> Error (Printf.sprintf "prefix %S is missing /len" s)
  | Some i ->
    let addr_s = String.sub s 0 i in
    let len_s = String.sub s (i + 1) (String.length s - i - 1) in
    (match Rz_util.Strings.decimal len_s with
     | None -> Error (Printf.sprintf "bad prefix length in %S" s)
     | Some len ->
       if String.contains addr_s ':' then
         match Ipaddr.V6.of_string addr_s with
         | Ok a when len >= 0 && len <= 128 -> Ok (v6 a len)
         | Ok _ -> Error (Printf.sprintf "bad IPv6 prefix length in %S" s)
         | Error e -> Error e
       else
         match Ipaddr.V4.of_string addr_s with
         | Ok a when len >= 0 && len <= 32 -> Ok (v4 a len)
         | Ok _ -> Error (Printf.sprintf "bad IPv4 prefix length in %S" s)
         | Error e -> Error e)

let of_string_exn s =
  match of_string s with Ok p -> p | Error msg -> invalid_arg msg

let to_string { addr; len } =
  match addr with
  | V4 a -> Printf.sprintf "%s/%d" (Ipaddr.V4.to_string a) len
  | V6 a -> Printf.sprintf "%s/%d" (Ipaddr.V6.to_string a) len

let is_v4 t = match t.addr with V4 _ -> true | V6 _ -> false
let is_v6 t = not (is_v4 t)
let max_len t = if is_v4 t then 32 else 128

let bit t i =
  match t.addr with V4 a -> Ipaddr.V4.bit a i | V6 a -> Ipaddr.V6.bit a i

let contains super sub =
  super.len <= sub.len
  &&
  match (super.addr, sub.addr) with
  | V4 a, V4 b -> Ipaddr.V4.mask b super.len = a
  | V6 a, V6 b -> Ipaddr.V6.mask b super.len = a
  | _ -> false

let compare a b =
  match (a.addr, b.addr) with
  | V4 _, V6 _ -> -1
  | V6 _, V4 _ -> 1
  | V4 x, V4 y ->
    let c = Int.compare x y in
    if c <> 0 then c else Int.compare a.len b.len
  | V6 x, V6 y ->
    let c = Ipaddr.V6.compare x y in
    if c <> 0 then c else Int.compare a.len b.len

let equal a b = compare a b = 0
let pp fmt t = Format.pp_print_string fmt (to_string t)

let subnets t l =
  if l < t.len then invalid_arg "Prefix.subnets: target shorter than prefix";
  let count_bits = l - t.len in
  if count_bits > 12 then invalid_arg "Prefix.subnets: expansion too large";
  let count = 1 lsl count_bits in
  match t.addr with
  | V4 a ->
    List.init count (fun i -> v4 (a lor (i lsl (32 - l))) l)
  | V6 (hi, lo) ->
    List.init count (fun i ->
        let i64 = Int64.of_int i in
        if l <= 64 then v6 (Int64.logor hi (Int64.shift_left i64 (64 - l)), lo) l
        else v6 (hi, Int64.logor lo (Int64.shift_left i64 (128 - l))) l)
