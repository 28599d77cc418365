(* Direct-coded fast path for the dominant rule shapes.

   The paper reports 98.4% of peerings are a single ASN or ANY; in our
   worlds the overwhelming majority of import/export attributes are

       from AS1966 accept AS1966:AS-CUST
       afi ipv6.unicast from AS1014 accept ANY

   i.e. [afi <afi>] from|to <peering-word> accept|announce <filter-word>.
   The general recursive-descent parser tokenizes into a list and walks
   it with closures; this module recognizes exactly those shapes with
   one character scan and a word split, building the identical AST the
   general parser would. Anything else — extra tokens, keywords in odd
   positions, malformed names, every error case — returns [None] and
   falls back to [Rz_policy.Parser.parse_rule], so error messages and
   corner-case semantics stay byte-identical by construction. The ingest
   differential suite holds fast-vs-full equality under QCheck.

   Keep every predicate here in lockstep with lib/policy/{lexer,parser}.ml. *)

(* Mirrors Lexer.is_word_char: a text containing any other non-blank
   character tokenizes to something richer than plain words. *)
let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '.' || c = ':' || c = '/' || c = '-' || c = '_' || c = '^' || c = '+'
  || c = '*' || c = '?'

let is_blank_char c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* Mirrors Parser.keywords; matched on the case-folded word (a decision
   tree, not 15 list probes — this runs per word of every rule). *)
let is_keyword w =
  match Rz_util.Strings.lowercase w with
  | "from" | "to" | "action" | "accept" | "announce" | "except" | "refine"
  | "at" | "and" | "or" | "not" | "afi" | "protocol" | "into" | "networks" ->
    true
  | _ -> false

let word_is_asn w =
  Rz_util.Strings.starts_with_ci ~prefix:"AS" w
  && Result.is_ok (Rz_net.Asn.of_string w)

(* Mirrors Parser.split_range_op, minus the exception. *)
let split_range_op word =
  match String.index_opt word '^' with
  | None -> Some (word, Rz_net.Range_op.None_)
  | Some i ->
    let base = String.sub word 0 i in
    (match Rz_net.Range_op.parse (String.sub word i (String.length word - i)) with
     | Ok op -> Some (base, op)
     | Error _ -> None)

(* Mirrors Parser.parse_peering_expr for a single non-keyword word. *)
let peering_of_word w =
  if is_keyword w then None
  else if Rz_rpsl.Set_name.classify w = Some Rz_rpsl.Set_name.Peering_set then
    Some (Rz_policy.Ast.Peering_set_ref w)
  else
    let as_expr =
      if Rz_util.Strings.equal_ci w "AS-ANY" then Some Rz_policy.Ast.Any_as
      else if word_is_asn w then
        Some (Rz_policy.Ast.Asn (Rz_net.Asn.of_string_exn w))
      else if Rz_rpsl.Set_name.is_valid Rz_rpsl.Set_name.As_set w then
        Some (Rz_policy.Ast.As_set w)
      else None
    in
    Option.map
      (fun e ->
        Rz_policy.Ast.Peering_spec
          { as_expr = e; remote_router = None; local_router = None })
      as_expr

(* Mirrors Parser.parse_filter_word for a single non-keyword word,
   returning [None] on every path that parser treats as complex or as an
   error (community filters, bad range ops, invalid names). *)
let filter_of_word w =
  if is_keyword w then None
  else
    let upper = Rz_util.Strings.uppercase w in
    if upper = "ANY" || upper = "AS-ANY" || upper = "RS-ANY" then
      Some Rz_policy.Ast.Any
    else if Rz_util.Strings.equal_ci w "PeerAS" then
      Some Rz_policy.Ast.Peer_as_filter
    else if Rz_util.Strings.equal_ci w "fltr-martian" then
      Some Rz_policy.Ast.Fltr_martian
    else if Rz_util.Strings.starts_with_ci ~prefix:"community" w then None
    else
      match split_range_op w with
      | None -> None
      | Some (base, op) ->
        if word_is_asn base then
          Some (Rz_policy.Ast.As_num (Rz_net.Asn.of_string_exn base, op))
        else (
          match Rz_rpsl.Set_name.classify base with
          | Some Rz_rpsl.Set_name.As_set
            when Rz_rpsl.Set_name.is_valid As_set base ->
            Some (Rz_policy.Ast.As_set_ref (base, op))
          | Some Rz_rpsl.Set_name.Route_set
            when Rz_rpsl.Set_name.is_valid Route_set base ->
            Some (Rz_policy.Ast.Route_set_ref (base, op))
          | Some Rz_rpsl.Set_name.Filter_set
            when Rz_rpsl.Set_name.is_valid Filter_set base ->
            if op = Rz_net.Range_op.None_ then
              Some (Rz_policy.Ast.Filter_set_ref base)
            else None
          | _ ->
            (match Rz_net.Prefix.of_string base with
             | Ok p ->
               Some (Rz_policy.Ast.Prefix_set ([ (p, op) ], Rz_net.Range_op.None_))
             | Error _ -> None))

let split_simple_words text =
  (* One scan: bail out on any character the lexer treats as structure
     (braces, parens, '<', ';', ',', '='...), split the rest on blanks. *)
  let n = String.length text in
  let words = ref [] and i = ref 0 and simple = ref true in
  while !simple && !i < n do
    let c = String.unsafe_get text !i in
    if is_blank_char c then incr i
    else if is_word_char c then begin
      let start = !i in
      while !i < n && is_word_char (String.unsafe_get text !i) do incr i done;
      words := String.sub text start (!i - start) :: !words
    end
    else simple := false
  done;
  if !simple then Some (List.rev !words) else None

let build ~direction ~multiprotocol ~afi peer_w filter_w =
  match (peering_of_word peer_w, filter_of_word filter_w) with
  | Some peering, Some filter ->
    Some
      { Rz_policy.Ast.direction;
        multiprotocol;
        protocol = None;
        into_protocol = None;
        expr =
          Rz_policy.Ast.Term_e
            { afi;
              factors = [ { peerings = [ { peering; actions = [] } ]; filter } ] } }
  | _ -> None

let parse_simple ~direction ~multiprotocol text =
  let peering_kw = match direction with `Import -> "from" | `Export -> "to" in
  let verb_kw = match direction with `Import -> "accept" | `Export -> "announce" in
  match split_simple_words text with
  | None -> None
  | Some words ->
    (match words with
     | [ kw; peer; verb; flt ]
       when Rz_util.Strings.equal_ci kw peering_kw
            && Rz_util.Strings.equal_ci verb verb_kw ->
       build ~direction ~multiprotocol ~afi:[] peer flt
     | [ a; af; kw; peer; verb; flt ]
       when Rz_util.Strings.equal_ci a "afi"
            && (not (is_keyword af))
            && Rz_util.Strings.equal_ci kw peering_kw
            && Rz_util.Strings.equal_ci verb verb_kw ->
       (match Rz_net.Afi.parse af with
        | Ok afi -> build ~direction ~multiprotocol ~afi:[ afi ] peer flt
        | Error _ -> None)
     | _ -> None)

(* A fresh memoized rule parser: fast path first, general parser as
   fallback, every (direction, multiprotocol, text) result — including
   errors — cached. parse_rule is pure, so caching is transparent; the
   table is unsynchronized, so each ingest pass creates its own. *)
let cached_rule_parser () : Rz_ir.Lower.rule_parser =
  let tbl : ((bool * bool * string), (Rz_policy.Ast.rule, string) result) Hashtbl.t =
    Hashtbl.create 2048
  in
  fun ~direction ~multiprotocol text ->
    let key = (direction = `Import, multiprotocol, text) in
    match Hashtbl.find_opt tbl key with
    | Some r -> r
    | None ->
      let r =
        match parse_simple ~direction ~multiprotocol text with
        | Some rule -> Ok rule
        | None -> Rz_policy.Parser.parse_rule ~direction ~multiprotocol text
      in
      Hashtbl.add tbl key r;
      r

(* Memoized member-list splitter: mnt-by and member-of values repeat
   heavily across a dump (the same maintainers guard thousands of
   routes), so caching [Lower.split_names] per raw value skips most of
   the continuation-folding and re-splitting work. Pure function, so
   transparent; same single-owner rule as the rule parser. *)
let cached_split () =
  let tbl : (string, string list) Hashtbl.t = Hashtbl.create 2048 in
  fun value ->
    match Hashtbl.find_opt tbl value with
    | Some names -> names
    | None ->
      let names = Rz_ir.Lower.split_names value in
      Hashtbl.add tbl value names;
      names
