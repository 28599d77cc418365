(* Seeded announce/withdraw/churn event streams and their journal codec.
   See events.mli for the contract. *)

module Asn = Rz_net.Asn
module Prefix = Rz_net.Prefix
module Route = Rz_bgp.Route
module Splitmix = Rz_util.Splitmix
module Obs = Rz_obs.Obs

type policy_edit =
  | Add_import of Asn.t * string
  | Drop_import of Asn.t * int
  | Add_export of Asn.t * string
  | Drop_export of Asn.t * int
  | As_set_add of string * Asn.t
  | As_set_del of string * Asn.t
  | Route_add of Prefix.t * Asn.t
  | Route_del of Prefix.t * Asn.t

type event =
  | Announce of Route.t
  | Withdraw of Prefix.t * Asn.t
  | Edit of policy_edit

type item = { seq : int; ev : event }

type world_view = {
  base_routes : Route.t list;
  as_sets : string list;
  autnums : Asn.t list;
  route_objs : (Prefix.t * Asn.t) list;
}

let c_rejected = Obs.Counter.make "stream.journal_rejected"

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let peer_of route =
  match route.Route.path with Route.Seq a :: _ -> Some a | _ -> None

(* Routes the generator can mutate: plain-sequence paths with a head. *)
let mutable_route r = (not (Route.contains_as_set r)) && peer_of r <> None

let pick_route rng pool =
  if Array.length pool = 0 then None else Some (Splitmix.choose rng pool)

let more_specific rng (p : Prefix.t) =
  let len = p.Prefix.len and max_len = Prefix.max_len p in
  if len >= max_len then None
  else
    let l = min max_len (len + 1 + Splitmix.int rng 2) in
    match Prefix.subnets p l with
    | [] -> None
    | subs -> Some (Splitmix.choose_list rng subs)

let gen_edit rng view =
  let pick_autnum () = Splitmix.choose_list rng view.autnums in
  let pick_set () = Splitmix.choose_list rng view.as_sets in
  let rule_text direction =
    let peer = pick_autnum () in
    let action, kw = match direction with
      | `Import -> "from", "accept"
      | `Export -> "to", "announce"
    in
    let filter = match Splitmix.int rng 3 with
      | 0 -> "ANY"
      | 1 when view.as_sets <> [] -> pick_set ()
      | _ -> Asn.to_string (pick_autnum ())
    in
    Printf.sprintf "%s %s %s %s" action (Asn.to_string peer) kw filter
  in
  let have_autnums = view.autnums <> [] in
  let have_sets = view.as_sets <> [] in
  let have_routes = view.route_objs <> [] in
  let rec choose () =
    match Splitmix.int rng 8 with
    | 0 when have_autnums -> Add_import (pick_autnum (), rule_text `Import)
    | 1 when have_autnums -> Drop_import (pick_autnum (), Splitmix.int rng 4)
    | 2 when have_autnums -> Add_export (pick_autnum (), rule_text `Export)
    | 3 when have_autnums -> Drop_export (pick_autnum (), Splitmix.int rng 4)
    | 4 when have_sets && have_autnums -> As_set_add (pick_set (), pick_autnum ())
    | 5 when have_sets && have_autnums -> As_set_del (pick_set (), pick_autnum ())
    | 6 when have_routes ->
        let p, o = Splitmix.choose_list rng view.route_objs in
        (match more_specific rng p with
         | Some sub -> Route_add (sub, o)
         | None -> Route_del (p, o))
    | 7 when have_routes ->
        let p, o = Splitmix.choose_list rng view.route_objs in
        Route_del (p, o)
    | _ when have_autnums || have_sets || have_routes -> choose ()
    | _ -> Add_import (0, "from AS0 accept ANY") (* degenerate view *)
  in
  choose ()

let generate ~seed ~n ?(edit_rate = 0.05) view =
  let rng = Splitmix.create seed in
  let live : Route.t array ref =
    ref (Array.of_list (List.filter mutable_route view.base_routes))
  in
  let withdrawn : Route.t list ref = ref [] in
  let announce r = live := Array.append !live [| r |]; Announce r in
  let withdraw_at i =
    let r = !live.(i) in
    let n = Array.length !live in
    let rest = Array.init (n - 1) (fun j -> !live.(if j < i then j else j + 1)) in
    live := rest;
    withdrawn := r :: !withdrawn;
    match peer_of r with
    | Some peer -> Withdraw (r.Route.prefix, peer)
    | None -> assert false
  in
  let gen_announce () =
    (* flap back a withdrawn route, or derive a variant of a live one *)
    match !withdrawn with
    | r :: rest when Splitmix.chance rng 0.4 -> withdrawn := rest; announce r
    | _ ->
        (match pick_route rng !live with
         | None ->
             (match view.base_routes with
              | [] -> Edit (gen_edit rng view)
              | l -> announce (Splitmix.choose_list rng l))
         | Some r ->
             (match Splitmix.int rng 3 with
              | 0 ->
                  (* new more-specific under an existing announcement *)
                  (match more_specific rng r.Route.prefix with
                   | Some sub -> announce { r with Route.prefix = sub }
                   | None -> announce r)
              | 1 ->
                  (* path change: re-announce via a different neighbor *)
                  let path = Route.dedup_path r in
                  (match pick_route rng !live with
                   | Some other when peer_of other <> peer_of r ->
                       let head = Option.get (peer_of other) in
                       announce (Route.make r.Route.prefix (head :: path))
                   | _ -> announce r)
              | _ ->
                  (* refresh (implicit replace of the same RIB slot) *)
                  announce r))
  in
  let gen_one () =
    if Splitmix.chance rng edit_rate
       && (view.autnums <> [] || view.as_sets <> [] || view.route_objs <> [])
    then Edit (gen_edit rng view)
    else if Array.length !live > 0 && Splitmix.chance rng 0.35 then
      withdraw_at (Splitmix.int rng (Array.length !live))
    else gen_announce ()
  in
  List.init n (fun i -> { seq = i + 1; ev = gen_one () })

(* ------------------------------------------------------------------ *)
(* Journal rendering                                                   *)
(* ------------------------------------------------------------------ *)

let edit_to_string = function
  | Add_import (a, text) ->
      Printf.sprintf "E autnum %s add-import %s" (Asn.to_string a) text
  | Drop_import (a, i) ->
      Printf.sprintf "E autnum %s drop-import %d" (Asn.to_string a) i
  | Add_export (a, text) ->
      Printf.sprintf "E autnum %s add-export %s" (Asn.to_string a) text
  | Drop_export (a, i) ->
      Printf.sprintf "E autnum %s drop-export %d" (Asn.to_string a) i
  | As_set_add (s, a) ->
      Printf.sprintf "E as-set %s add %s" s (Asn.to_string a)
  | As_set_del (s, a) ->
      Printf.sprintf "E as-set %s del %s" s (Asn.to_string a)
  | Route_add (p, o) ->
      Printf.sprintf "E route add %s %s" (Prefix.to_string p) (Asn.to_string o)
  | Route_del (p, o) ->
      Printf.sprintf "E route del %s %s" (Prefix.to_string p) (Asn.to_string o)

let event_to_string = function
  | Announce r -> "A " ^ Route.to_line r
  | Withdraw (p, peer) ->
      Printf.sprintf "W %s|%s" (Prefix.to_string p) (Asn.to_string peer)
  | Edit e -> edit_to_string e

let render items =
  let buf = Buffer.create (64 * List.length items) in
  List.iter
    (fun { seq; ev } ->
      Buffer.add_string buf (string_of_int seq);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (event_to_string ev);
      Buffer.add_char buf '\n')
    items;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Journal parsing (hardened)                                          *)
(* ------------------------------------------------------------------ *)

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

(* First [n] whitespace tokens of [s] plus the untokenized remainder
   (rule text keeps its internal spacing). *)
let take_tokens n s =
  let len = String.length s in
  let rec skip i = if i < len && s.[i] = ' ' then skip (i + 1) else i in
  let rec go acc k i =
    if k = 0 then Some (List.rev acc, String.sub s i (len - i))
    else
      let i = skip i in
      if i >= len then None
      else
        let j = try String.index_from s i ' ' with Not_found -> len in
        go (String.sub s i (j - i) :: acc) (k - 1) j
  in
  go [] n 0

let parse_edit rest =
  match take_tokens 3 rest with
  | Some ([ "autnum"; asn; verb ], tail) -> (
      match Asn.of_string asn with
      | Error e -> Error ("bad asn: " ^ e)
      | Ok a -> (
          let tail = String.trim tail in
          match verb with
          | "add-import" | "add-export" ->
              if tail = "" then Error "missing rule text"
              else if verb = "add-import" then Ok (Add_import (a, tail))
              else Ok (Add_export (a, tail))
          | "drop-import" | "drop-export" -> (
              match Rz_util.Strings.decimal tail with
              | Some i ->
                  if verb = "drop-import" then Ok (Drop_import (a, i))
                  else Ok (Drop_export (a, i))
              | _ -> Error "bad rule index")
          | _ -> Error ("unknown autnum edit: " ^ verb)))
  | Some ([ "as-set"; name; verb ], tail) -> (
      match split_ws tail with
      | [ asn ] -> (
          match Asn.of_string asn with
          | Error e -> Error ("bad asn: " ^ e)
          | Ok a -> (
              match verb with
              | "add" -> Ok (As_set_add (name, a))
              | "del" -> Ok (As_set_del (name, a))
              | _ -> Error ("unknown as-set edit: " ^ verb)))
      | _ -> Error "as-set edit wants exactly one asn")
  | Some ([ "route"; verb; pfx ], tail) -> (
      match split_ws tail with
      | [ asn ] -> (
          match (Prefix.of_string pfx, Asn.of_string asn) with
          | Ok p, Ok a -> (
              match verb with
              | "add" -> Ok (Route_add (p, a))
              | "del" -> Ok (Route_del (p, a))
              | _ -> Error ("unknown route edit: " ^ verb))
          | Error e, _ | _, Error e -> Error e)
      | _ -> Error "route edit wants prefix and asn")
  | _ -> Error "truncated edit"

let parse_event kind rest =
  match kind with
  | "A" -> (
      match Route.of_line (String.trim rest) with
      | Ok r when peer_of r <> None -> Ok (Announce r)
      | Ok _ -> Error "announce without a peer head"
      | Error e -> Error e)
  | "W" -> (
      match String.split_on_char '|' (String.trim rest) with
      | [ pfx; asn ] -> (
          match (Prefix.of_string pfx, Asn.of_string asn) with
          | Ok p, Ok a -> Ok (Withdraw (p, a))
          | Error e, _ | _, Error e -> Error e)
      | _ -> Error "withdraw wants prefix|peer")
  | "E" -> (
      match parse_edit (String.trim rest) with
      | Ok e -> Ok (Edit e)
      | Error e -> Error e)
  | k -> Error ("unknown event kind: " ^ k)

let parse text =
  let items = ref [] and errors = ref [] in
  let last_seq = ref 0 in
  let reject lineno reason =
    Obs.Counter.incr c_rejected;
    errors := (lineno, reason) :: !errors
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line = "" then ()
      else if String.contains line '\000' then reject lineno "NUL byte"
      else
        match take_tokens 2 line with
        | None -> reject lineno "truncated line"
        | Some ([ seq_s; kind ], rest) -> (
            match Rz_util.Strings.decimal seq_s with
            | None -> reject lineno "bad sequence number"
            | Some seq when seq <= !last_seq ->
                reject lineno
                  (Printf.sprintf "out-of-order sequence %d after %d" seq
                     !last_seq)
            | Some seq -> (
                match parse_event kind rest with
                | Ok ev ->
                    last_seq := seq;
                    items := { seq; ev } :: !items
                | Error e -> reject lineno e))
        | Some _ -> reject lineno "truncated line")
    lines;
  (List.rev !items, List.rev !errors)
