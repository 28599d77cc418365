(* ASCII case folding, alloc-free on the (dominant) already-folded case:
   attribute keys are lowercase after the reader, set names are usually
   uppercase on the wire. Semantics are exactly
   [String.lowercase_ascii]/[uppercase_ascii] — only 'A'..'Z'/'a'..'z'
   fold; returning the argument itself is safe because strings are
   immutable. *)
let lower_char c = if c >= 'A' && c <= 'Z' then Char.unsafe_chr (Char.code c + 32) else c

let lowercase s =
  let n = String.length s in
  let rec clean i = i >= n || (not (String.unsafe_get s i >= 'A' && String.unsafe_get s i <= 'Z') && clean (i + 1)) in
  if clean 0 then s else String.lowercase_ascii s

let uppercase s =
  let n = String.length s in
  let rec clean i = i >= n || (not (String.unsafe_get s i >= 'a' && String.unsafe_get s i <= 'z') && clean (i + 1)) in
  if clean 0 then s else String.uppercase_ascii s

let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\n'

let strip s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && is_space s.[!i] do incr i done;
  let j = ref (n - 1) in
  while !j >= !i && is_space s.[!j] do decr j done;
  String.sub s !i (!j - !i + 1)

let split_on_string ~sep s =
  if sep = "" then invalid_arg "split_on_string: empty separator";
  let seplen = String.length sep in
  let rec go start acc =
    match
      (* Find next occurrence of sep at or after start. *)
      let limit = String.length s - seplen in
      let rec find i =
        if i > limit then None
        else if String.sub s i seplen = sep then Some i
        else find (i + 1)
      in
      find start
    with
    | None -> List.rev (String.sub s start (String.length s - start) :: acc)
    | Some i -> go (i + seplen) (String.sub s start (i - start) :: acc)
  in
  go 0 []

let starts_with_ci ~prefix s =
  let np = String.length prefix in
  String.length s >= np
  && (let rec go i =
        i >= np
        || (lower_char (String.unsafe_get s i) = lower_char (String.unsafe_get prefix i)
            && go (i + 1))
      in
      go 0)

let equal_ci a b =
  let n = String.length a in
  String.length b = n
  && (let rec go i =
        i >= n
        || (lower_char (String.unsafe_get a i) = lower_char (String.unsafe_get b i)
            && go (i + 1))
      in
      go 0)
let is_blank s = String.for_all is_space s

let split_words s =
  String.split_on_char ' ' (String.map (fun c -> if is_space c then ' ' else c) s)
  |> List.filter (fun w -> w <> "")

let chop_comment c s =
  match String.index_opt s c with
  | None -> s
  | Some i -> String.sub s 0 i

(* Top level, so a call allocates nothing but the final [Some]. *)
let rec decimal_from s n i acc =
  if i = n then Some acc
  else
    match s.[i] with
    | '0' .. '9' as c ->
      let d = Char.code c - Char.code '0' in
      if acc > (max_int - d) / 10 then None else decimal_from s n (i + 1) ((acc * 10) + d)
    | _ -> None

let decimal s = if s = "" then None else decimal_from s (String.length s) 0 0
