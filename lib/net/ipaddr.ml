module V4 = struct
  type t = int

  let of_string s =
    let parts = String.split_on_char '.' (Rz_util.Strings.strip s) in
    match parts with
    | [ a; b; c; d ] ->
      let byte x =
        match Rz_util.Strings.decimal x with
        | Some v when v <= 255 -> Some v
        | _ -> None
      in
      (match (byte a, byte b, byte c, byte d) with
       | Some a, Some b, Some c, Some d -> Ok ((a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d)
       | _ -> Error (Printf.sprintf "malformed IPv4 address %S" s))
    | _ -> Error (Printf.sprintf "malformed IPv4 address %S" s)

  let to_string a =
    Printf.sprintf "%d.%d.%d.%d" ((a lsr 24) land 0xFF) ((a lsr 16) land 0xFF)
      ((a lsr 8) land 0xFF) (a land 0xFF)

  let bit a i = (a lsr (31 - i)) land 1 = 1

  let mask a len =
    if len <= 0 then 0
    else if len >= 32 then a
    else a land (((1 lsl len) - 1) lsl (32 - len))
end

module V6 = struct
  type t = int64 * int64

  let of_string s =
    let s = Rz_util.Strings.strip s in
    let fail () = Error (Printf.sprintf "malformed IPv6 address %S" s) in
    let group g =
      let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
      if g = "" || String.length g > 4 || not (String.for_all hex g) then None
      else
        match int_of_string_opt ("0x" ^ g) with
        | Some v when v >= 0 && v <= 0xFFFF -> Some v
        | _ -> None
    in
    let to_t groups =
      if List.length groups <> 8 then fail ()
      else
        match List.map group groups with
        | parts when List.for_all Option.is_some parts ->
          let vals = List.map Option.get parts in
          let fold lst =
            List.fold_left (fun acc v -> Int64.logor (Int64.shift_left acc 16) (Int64.of_int v)) 0L lst
          in
          let rec split i acc = function
            | rest when i = 4 -> (List.rev acc, rest)
            | x :: rest -> split (i + 1) (x :: acc) rest
            | [] -> (List.rev acc, [])
          in
          let hi, lo = split 0 [] vals in
          Ok (fold hi, fold lo)
        | _ -> fail ()
    in
    match Rz_util.Strings.split_on_string ~sep:"::" s with
    | [ whole ] -> to_t (String.split_on_char ':' whole)
    | [ left; right ] ->
      let lgroups = if left = "" then [] else String.split_on_char ':' left in
      let rgroups = if right = "" then [] else String.split_on_char ':' right in
      let fill = 8 - List.length lgroups - List.length rgroups in
      if fill < 1 then fail ()
      else to_t (lgroups @ List.init fill (fun _ -> "0") @ rgroups)
    | _ -> fail ()

  let groups (hi, lo) =
    let g64 x =
      [ Int64.to_int (Int64.logand (Int64.shift_right_logical x 48) 0xFFFFL);
        Int64.to_int (Int64.logand (Int64.shift_right_logical x 32) 0xFFFFL);
        Int64.to_int (Int64.logand (Int64.shift_right_logical x 16) 0xFFFFL);
        Int64.to_int (Int64.logand x 0xFFFFL) ]
    in
    g64 hi @ g64 lo

  let to_string t =
    let gs = Array.of_list (groups t) in
    (* Find the longest run of zero groups (length >= 2) for :: compression. *)
    let best_start = ref (-1) and best_len = ref 0 in
    let i = ref 0 in
    while !i < 8 do
      if gs.(!i) = 0 then begin
        let j = ref !i in
        while !j < 8 && gs.(!j) = 0 do incr j done;
        if !j - !i > !best_len then begin
          best_len := !j - !i;
          best_start := !i
        end;
        i := !j
      end
      else incr i
    done;
    if !best_len < 2 then
      String.concat ":" (Array.to_list (Array.map (Printf.sprintf "%x") gs))
    else begin
      let before = Array.to_list (Array.sub gs 0 !best_start) in
      let after = Array.to_list (Array.sub gs (!best_start + !best_len) (8 - !best_start - !best_len)) in
      let fmt l = String.concat ":" (List.map (Printf.sprintf "%x") l) in
      fmt before ^ "::" ^ fmt after
    end

  let bit (hi, lo) i =
    if i < 64 then Int64.logand (Int64.shift_right_logical hi (63 - i)) 1L = 1L
    else Int64.logand (Int64.shift_right_logical lo (63 - (i - 64))) 1L = 1L

  let mask64 x len =
    if len <= 0 then 0L
    else if len >= 64 then x
    else Int64.logand x (Int64.shift_left Int64.minus_one (64 - len))

  let mask (hi, lo) len =
    if len <= 64 then (mask64 hi len, 0L) else (hi, mask64 lo (len - 64))

  let compare (h1, l1) (h2, l2) =
    let c = Int64.unsigned_compare h1 h2 in
    if c <> 0 then c else Int64.unsigned_compare l1 l2
end
