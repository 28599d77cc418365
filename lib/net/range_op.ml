type t =
  | None_
  | Minus
  | Plus
  | Exact of int
  | Range of int * int

let parse s =
  let s = Rz_util.Strings.strip s in
  if s = "" then Ok None_
  else if s.[0] <> '^' then Error (Printf.sprintf "range operator %S must start with ^" s)
  else
    let body = String.sub s 1 (String.length s - 1) in
    match body with
    | "-" -> Ok Minus
    | "+" -> Ok Plus
    | _ ->
      (match String.index_opt body '-' with
       | None ->
         (match Rz_util.Strings.decimal body with
          | Some n when n >= 0 && n <= 128 -> Ok (Exact n)
          | _ -> Error (Printf.sprintf "bad range operator %S" s))
       | Some i ->
         let lo = String.sub body 0 i
         and hi = String.sub body (i + 1) (String.length body - i - 1) in
         (match (Rz_util.Strings.decimal lo, Rz_util.Strings.decimal hi) with
          | Some lo, Some hi when lo >= 0 && hi >= lo && hi <= 128 -> Ok (Range (lo, hi))
          | _ -> Error (Printf.sprintf "bad range operator %S" s)))

let to_string = function
  | None_ -> ""
  | Minus -> "^-"
  | Plus -> "^+"
  | Exact n -> Printf.sprintf "^%d" n
  | Range (lo, hi) -> Printf.sprintf "^%d-%d" lo hi

let matches op ~declared ~observed =
  Prefix.contains declared observed
  &&
  let dl = declared.Prefix.len and ol = observed.Prefix.len in
  match op with
  | None_ -> ol = dl
  | Minus -> ol > dl
  | Plus -> ol >= dl
  | Exact n -> ol = n && n >= dl
  | Range (lo, hi) -> ol >= lo && ol <= hi && ol >= dl

(* RFC 2622 §2: when operators stack ({set}^op or member^inner under
   outer), the outer operator applies to the prefix as if the inner one
   defined a base range; the standard collapses this to: outer wins unless
   it denotes an empty range, in which case the term matches nothing. We
   encode "nothing" as Range (n, m) with n > m never arising by keeping the
   simple replace-with-outer rule used by IRRd and bgpq4. *)
let compose outer inner =
  match outer with
  | None_ -> inner
  | _ -> outer

let is_more_specific = function
  | None_ -> false
  | Minus | Plus -> true
  | Exact _ | Range _ -> true

let equal a b = a = b
let pp fmt t = Format.pp_print_string fmt (to_string t)
