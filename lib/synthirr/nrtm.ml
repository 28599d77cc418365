(* NRTM-style ADD/DEL journals over rendered RPSL dumps. See nrtm.mli. *)

module Splitmix = Rz_util.Splitmix
module Strings = Rz_util.Strings
module Obs = Rz_obs.Obs

let c_ops = Obs.Counter.make "nrtm.ops_total"
let c_rejected = Obs.Counter.make "nrtm.ops_rejected"

type action = Add | Del

type op = {
  serial : int;
  source : string;
  action : action;
  text : string;
}

type key = string

(* ---------------- paragraphs ---------------- *)

(* Split dump text into blank-line-separated paragraphs, preserving
   order. Remark paragraphs (%- or #-led) are kept so reassembly does
   not lose them; they carry the empty key. *)
let paragraphs text =
  let lines = String.split_on_char '\n' text in
  let blocks = ref [] and cur = ref [] in
  let flush () =
    if !cur <> [] then begin
      blocks := String.concat "\n" (List.rev !cur) :: !blocks;
      cur := []
    end
  in
  List.iter
    (fun line ->
      if Strings.is_blank line then flush () else cur := line :: !cur)
    lines;
  flush ();
  List.rev !blocks

let unparagraphs blocks =
  match blocks with
  | [] -> ""
  | _ -> String.concat "\n\n" blocks ^ "\n"

let first_attr para =
  match String.index_opt para ':' with
  | None -> None
  | Some i ->
    let line_end =
      match String.index_opt para '\n' with
      | Some j -> j
      | None -> String.length para
    in
    if i >= line_end then None
    else
      let cls = Strings.lowercase (Strings.strip (String.sub para 0 i)) in
      let value = Strings.strip (String.sub para (i + 1) (line_end - i - 1)) in
      if cls = "" || String.contains cls ' ' then None else Some (cls, value)

let attr_value para name =
  let needle = name ^ ":" in
  let rec find = function
    | [] -> None
    | line :: rest ->
      if Strings.starts_with_ci ~prefix:needle line then
        Some
          (Strings.strip
             (String.sub line (String.length needle)
                (String.length line - String.length needle)))
      else find rest
  in
  find (String.split_on_char '\n' para)

let key_of_paragraph para =
  if String.length para > 0 && (para.[0] = '%' || para.[0] = '#') then ""
  else
    match first_attr para with
    | None -> ""
    | Some (cls, name) ->
      let name = Strings.uppercase name in
      if cls = "route" || cls = "route6" then
        let origin =
          match attr_value para "origin" with
          | Some o -> Strings.uppercase o
          | None -> ""
        in
        Printf.sprintf "%s|%s|%s" cls name origin
      else Printf.sprintf "%s|%s" cls name

(* ---------------- generation ---------------- *)

(* Mutable view of the dump set the generator edits as it draws ops, so
   every op is valid at its point in the journal (no double deletes, no
   adds of keys that still exist elsewhere). *)
type gen_state = {
  mutable next_fresh : int;                     (* fresh 198.18/15 allocator *)
  key_counts : (key, int) Hashtbl.t;            (* across all dumps *)
  live : (key, string * string) Hashtbl.t;      (* key -> (source, text) *)
}

let index_dumps dumps =
  let st =
    { next_fresh = 0; key_counts = Hashtbl.create 1024; live = Hashtbl.create 1024 }
  in
  List.iter
    (fun (source, text) ->
      List.iter
        (fun para ->
          let key = key_of_paragraph para in
          if key <> "" then begin
            let n = Option.value ~default:0 (Hashtbl.find_opt st.key_counts key) in
            Hashtbl.replace st.key_counts key (n + 1);
            Hashtbl.replace st.live key (source, para)
          end)
        (paragraphs text))
    dumps;
  st

let unique_keyed st ~cls_prefix =
  Hashtbl.fold
    (fun key (source, text) acc ->
      if
        Hashtbl.find_opt st.key_counts key = Some 1
        && List.exists
             (fun p -> String.length key >= String.length p
                       && String.sub key 0 (String.length p) = p)
             cls_prefix
      then (key, source, text) :: acc
      else acc)
    st.live []
  |> List.sort compare

let fresh_route st rng origins =
  (* 198.18.0.0/15 is disjoint from the topology's 20.0.0.0/8 space, so
     fresh keys never collide with (or shadow) generated route objects. *)
  let i = st.next_fresh in
  st.next_fresh <- i + 1;
  let prefix = Printf.sprintf "198.%d.%d.0/24" (18 + (i lsr 8)) (i land 0xFF) in
  let origin = Splitmix.choose_list rng origins in
  Printf.sprintf "route: %s\norigin: %s" prefix origin

let generate ~seed ~n dumps =
  let rng = Splitmix.create seed in
  let st = index_dumps dumps in
  let sources = List.map fst dumps in
  let origins =
    let routes = unique_keyed st ~cls_prefix:[ "route|"; "route6|" ] in
    let os =
      List.filter_map (fun (_, _, text) -> attr_value text "origin") routes
      |> List.sort_uniq compare
    in
    if os = [] then [ "AS64500" ] else os
  in
  let serial = ref 0 in
  let next_serial () = incr serial; !serial in
  let del st key =
    Hashtbl.remove st.live key;
    Hashtbl.remove st.key_counts key
  in
  let add st source text =
    let key = key_of_paragraph text in
    Hashtbl.replace st.live key (source, text);
    Hashtbl.replace st.key_counts key 1;
    key
  in
  let ops = ref [] in
  let emit o = ops := o :: !ops in
  let pick_unique cls_prefix =
    match unique_keyed st ~cls_prefix with
    | [] -> None
    | candidates -> Some (Splitmix.choose_list rng candidates)
  in
  (* Draws that find no candidate emit nothing; the attempt cap keeps a
     degenerate dump set (nothing editable) from spinning forever. *)
  let attempts = ref 0 in
  while !serial < n && !attempts < 20 * (n + 1) do
    incr attempts;
    match Splitmix.int rng 100 with
    | r when r < 30 ->
      (* fresh route object *)
      let source = Splitmix.choose_list rng sources in
      let text = fresh_route st rng origins in
      ignore (add st source text);
      emit { serial = next_serial (); source; action = Add; text }
    | r when r < 55 -> (
      (* delete a route object *)
      match pick_unique [ "route|"; "route6|" ] with
      | None -> ()
      | Some (key, source, text) ->
        del st key;
        emit { serial = next_serial (); source; action = Del; text })
    | r when r < 75 -> (
      (* modify an as-set: DEL old text, ADD with one more member *)
      match pick_unique [ "as-set|" ] with
      | None -> ()
      | Some (key, source, text) ->
        let member = Printf.sprintf "AS%d" (64600 + Splitmix.int rng 200) in
        let text' = text ^ "\nmembers: " ^ member in
        emit { serial = next_serial (); source; action = Del; text };
        del st key;
        ignore (add st source text');
        emit { serial = next_serial (); source; action = Add; text = text' })
    | r when r < 92 -> (
      (* modify an aut-num: append one import rule *)
      match pick_unique [ "aut-num|" ] with
      | None -> ()
      | Some (key, source, text) ->
        let peer = Printf.sprintf "AS%d" (64800 + Splitmix.int rng 200) in
        let text' = text ^ Printf.sprintf "\nimport: from %s accept ANY" peer in
        emit { serial = next_serial (); source; action = Del; text };
        del st key;
        ignore (add st source text');
        emit { serial = next_serial (); source; action = Add; text = text' })
    | _ -> (
      (* delete a whole as-set *)
      match pick_unique [ "as-set|" ] with
      | None -> ()
      | Some (key, source, text) ->
        del st key;
        emit { serial = next_serial (); source; action = Del; text })
  done;
  let ops = List.rev !ops in
  Obs.Counter.add c_ops (List.length ops);
  ops

(* ---------------- text-level replay ---------------- *)

let apply_to_dumps ops dumps =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (source, text) -> Hashtbl.replace tbl source (paragraphs text)) dumps;
  List.iter
    (fun op ->
      match Hashtbl.find_opt tbl op.source with
      | None -> ()
      | Some blocks ->
        let key = key_of_paragraph op.text in
        let without = List.filter (fun b -> key_of_paragraph b <> key) blocks in
        let blocks' =
          match op.action with
          | Del -> without
          | Add -> without @ [ op.text ]
        in
        Hashtbl.replace tbl op.source blocks')
    ops;
  List.map
    (fun (source, _) -> (source, unparagraphs (Hashtbl.find tbl source)))
    dumps

(* ---------------- journal text ---------------- *)

let action_name = function Add -> "ADD" | Del -> "DEL"

let render ops =
  let b = Buffer.create 4096 in
  let first = match ops with o :: _ -> o.serial | [] -> 0 in
  let last = List.fold_left (fun _ o -> o.serial) first ops in
  Buffer.add_string b
    (Printf.sprintf "%%START Version: 3 rpslyzer %d-%d\n" first last);
  List.iter
    (fun op ->
      Buffer.add_string b
        (Printf.sprintf "%s %d %s\n\n%s\n\n" (action_name op.action) op.serial
           op.source op.text))
    ops;
  Buffer.add_string b "%END rpslyzer\n";
  Buffer.contents b

let max_paragraph_bytes = 65_536

let parse text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  let ops = ref [] and errors = ref [] in
  let reject line reason =
    errors := (line, reason) :: !errors;
    Obs.Counter.incr c_rejected
  in
  let last_serial = ref 0 in
  let i = ref 0 in
  while !i < n do
    let line = lines.(!i) in
    let lineno = !i + 1 in
    if Strings.is_blank line || (String.length line > 0 && line.[0] = '%') then
      incr i
    else begin
      (* op header *)
      let header_ok =
        match Strings.split_words line with
        | [ action; serial; source ] -> (
          let action =
            match action with
            | "ADD" -> Some Add
            | "DEL" -> Some Del
            | _ -> None
          in
          match (action, Strings.decimal serial) with
          | Some action, Some serial when serial > !last_serial ->
            Some (action, serial, source)
          | Some _, Some _ -> None
          | _ -> None)
        | _ -> None
      in
      (* collect the paragraph that follows, regardless, so a bad header
         skips its payload instead of re-rejecting every line of it *)
      incr i;
      while !i < n && Strings.is_blank lines.(!i) do incr i done;
      let para = Buffer.create 256 in
      while !i < n && not (Strings.is_blank lines.(!i)) do
        if Buffer.length para > 0 then Buffer.add_char para '\n';
        Buffer.add_string para lines.(!i);
        incr i
      done;
      let para = Buffer.contents para in
      match header_ok with
      | None -> reject lineno (Printf.sprintf "malformed op header %S" line)
      | Some (action, serial, source) ->
        if String.contains para '\000' then
          reject lineno "NUL byte in paragraph"
        else if String.length para > max_paragraph_bytes then
          reject lineno "oversized paragraph"
        else if key_of_paragraph para = "" then
          reject lineno "paragraph has no key attribute"
        else begin
          last_serial := serial;
          ops := { serial; source; action; text = para } :: !ops
        end
    end
  done;
  (List.rev !ops, List.rev !errors)
