module Obs = Rz_obs.Obs

type roa = {
  prefix : Rz_net.Prefix.t;
  max_length : int;
  origin : Rz_net.Asn.t;
}

type t = { trie : roa Rz_net.Prefix_trie.t }

let create () = { trie = Rz_net.Prefix_trie.create () }
let add t roa = Rz_net.Prefix_trie.add t.trie roa.prefix roa
let size t = Rz_net.Prefix_trie.length t.trie

let of_list roas =
  let t = create () in
  List.iter (add t) roas;
  t

type state =
  | Valid
  | Invalid_origin
  | Invalid_length
  | Not_found

let state_to_string = function
  | Valid -> "valid"
  | Invalid_origin -> "invalid-origin"
  | Invalid_length -> "invalid-length"
  | Not_found -> "not-found"

let coarse = function
  | Valid -> "valid"
  | Invalid_origin | Invalid_length -> "invalid"
  | Not_found -> "not-found"

let is_invalid = function
  | Invalid_origin | Invalid_length -> true
  | Valid | Not_found -> false

let c_rov_total = Obs.Counter.make "rpki.rov_total"
let c_rov_valid = Obs.Counter.make "rpki.rov.valid"
let c_rov_invalid_origin = Obs.Counter.make "rpki.rov.invalid_origin"
let c_rov_invalid_length = Obs.Counter.make "rpki.rov.invalid_length"
let c_rov_not_found = Obs.Counter.make "rpki.rov.not_found"

let validate t prefix origin =
  let covering = Rz_net.Prefix_trie.covering t.trie prefix in
  let len = prefix.Rz_net.Prefix.len in
  let state =
    if covering = [] then Not_found
    else if
      List.exists
        (fun (_, roa) -> roa.origin = origin && len <= roa.max_length)
        covering
    then Valid
    else if List.exists (fun (_, roa) -> roa.origin = origin) covering then
      Invalid_length
    else Invalid_origin
  in
  Obs.Counter.incr c_rov_total;
  Obs.Counter.incr
    (match state with
     | Valid -> c_rov_valid
     | Invalid_origin -> c_rov_invalid_origin
     | Invalid_length -> c_rov_invalid_length
     | Not_found -> c_rov_not_found);
  state

(* ---------------- ROA file interchange ---------------- *)

type parse_error = {
  line : int;
  text : string;
  reason : string;
}

type parsed = {
  table : t;
  roas : roa list;
  loaded : int;
  n_rejected : int;
  rejected : parse_error list;
}

let max_recorded_errors = 64

let c_loaded = Obs.Counter.make "rpki.roas_loaded"
let c_rejected = Obs.Counter.make "rpki.roas_rejected"

(* Lines shown in diagnostics must survive terminals and JSON: cap the
   length and replace control bytes. *)
let sanitize line =
  let line = if String.length line > 80 then String.sub line 0 80 ^ "..." else line in
  String.map (fun c -> if Char.code c < 0x20 then '?' else c) line

let roa_to_line roa =
  Printf.sprintf "%s,%d,%s"
    (Rz_net.Prefix.to_string roa.prefix)
    roa.max_length
    (Rz_net.Asn.to_string roa.origin)

let render roas =
  let b = Buffer.create (64 * (List.length roas + 1)) in
  Buffer.add_string b "# rpslyzer ROAs v1\n# prefix,maxLength,origin\n";
  List.iter
    (fun roa ->
      Buffer.add_char b '\n';
      Buffer.add_string b (roa_to_line roa);
      Buffer.add_char b '\n')
    roas;
  Buffer.contents b

let parse_line line =
  if String.contains line '\000' then Error "NUL byte in line"
  else if String.contains line '\r' then Error "embedded CR in line"
  else
    match String.split_on_char ',' line with
    | [ prefix_s; maxlen_s; origin_s ] ->
      (match Rz_net.Prefix.of_string (Rz_util.Strings.strip prefix_s) with
       | Error e -> Error e
       | Ok prefix ->
         (match Rz_util.Strings.decimal (Rz_util.Strings.strip maxlen_s) with
          | None -> Error "maxLength is not an integer"
          | Some max_length ->
            if
              max_length < prefix.Rz_net.Prefix.len
              || max_length > Rz_net.Prefix.max_len prefix
            then
              Error
                (Printf.sprintf
                   "maxLength %d outside [%d, %d]" max_length
                   prefix.Rz_net.Prefix.len
                   (Rz_net.Prefix.max_len prefix))
            else
              (match Rz_net.Asn.of_string (Rz_util.Strings.strip origin_s) with
               | Error e -> Error e
               | Ok origin -> Ok { prefix; max_length; origin })))
    | _ -> Error "malformed line (expected prefix,maxLength,origin)"

let parse_string text =
  let table = create () in
  let seen = Hashtbl.create 64 in
  let roas = ref [] and loaded = ref 0 in
  let n_rejected = ref 0 and rejected = ref [] in
  let reject lineno line reason =
    incr n_rejected;
    Obs.Counter.incr c_rejected;
    if !n_rejected <= max_recorded_errors then
      rejected := { line = lineno; text = sanitize line; reason } :: !rejected
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      (* tolerate CRLF line endings; a CR anywhere else is an injection *)
      let line =
        let n = String.length raw in
        if n > 0 && raw.[n - 1] = '\r' then String.sub raw 0 (n - 1) else raw
      in
      let body =
        if String.contains line '\000' then line
        else Rz_util.Strings.strip (Rz_util.Strings.chop_comment '#' line)
      in
      if body <> "" then
        match parse_line body with
        | Error reason -> reject lineno raw reason
        | Ok roa ->
          let key = roa_to_line roa in
          if Hashtbl.mem seen key then reject lineno raw "duplicate entry"
          else begin
            Hashtbl.add seen key ();
            add table roa;
            roas := roa :: !roas;
            incr loaded;
            Obs.Counter.incr c_loaded
          end)
    lines;
  { table;
    roas = List.rev !roas;
    loaded = !loaded;
    n_rejected = !n_rejected;
    rejected = List.rev !rejected }
