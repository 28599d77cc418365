open Ast

exception Err of string

type state = { mutable toks : Lexer.token list }

let peek st = match st.toks with [] -> None | t :: _ -> Some t
let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let peek_word st =
  match peek st with Some (Lexer.Word w) -> Some w | _ -> None

let is_kw st kw =
  match peek_word st with
  | Some w -> Rz_util.Strings.equal_ci w kw
  | None -> false

let eat_kw st kw =
  if is_kw st kw then begin advance st; true end else false

let expect st tok msg =
  match peek st with
  | Some t when t = tok -> advance st
  | _ -> raise (Err msg)

let keywords =
  [ "from"; "to"; "action"; "accept"; "announce"; "except"; "refine"; "at";
    "and"; "or"; "not"; "afi"; "protocol"; "into"; "networks" ]

let is_keyword w = List.exists (Rz_util.Strings.equal_ci w) keywords

(* Split a trailing prefix-range operator off a word: "AS-FOO^+" ->
   ("AS-FOO", Plus). *)
let split_range_op word =
  match String.index_opt word '^' with
  | None -> (word, Rz_net.Range_op.None_)
  | Some i ->
    let base = String.sub word 0 i in
    let op_text = String.sub word i (String.length word - i) in
    (match Rz_net.Range_op.parse op_text with
     | Ok op -> (base, op)
     | Error e -> raise (Err e))

let word_is_asn w =
  Rz_util.Strings.starts_with_ci ~prefix:"AS" w && Result.is_ok (Rz_net.Asn.of_string w)

(* ---------------- AS expressions (peerings) ---------------- *)

let rec parse_as_expr_prec st =
  let left = parse_as_term st in
  parse_as_rest st left

and parse_as_rest st left =
  if eat_kw st "and" then parse_as_rest st (And (left, parse_as_term st))
  else if eat_kw st "or" then parse_as_rest st (Or (left, parse_as_term st))
  else if eat_kw st "except" then
    (* EXCEPT binds the rest of the as-expression on the right, matching
       the paper's AS199284 example. *)
    Except_as (left, parse_as_expr_prec st)
  else left

and parse_as_term st =
  match peek st with
  | Some Lexer.Lparen ->
    advance st;
    let inner = parse_as_expr_prec st in
    expect st Lexer.Rparen "expected ) in AS expression";
    inner
  | Some (Lexer.Word w) when not (is_keyword w) ->
    advance st;
    if Rz_util.Strings.equal_ci w "AS-ANY" then Any_as
    else if word_is_asn w then Asn (Rz_net.Asn.of_string_exn w)
    else if Rz_rpsl.Set_name.is_valid Rz_rpsl.Set_name.As_set w then As_set w
    else raise (Err (Printf.sprintf "invalid AS expression term %S" w))
  | Some t -> raise (Err ("unexpected token in AS expression: " ^ Lexer.token_to_string t))
  | None -> raise (Err "truncated AS expression")

(* ---------------- Peerings ---------------- *)

let peering_stop_words = [ "action"; "accept"; "announce"; "from"; "to"; "except"; "refine" ]
let is_peering_stop st =
  match peek_word st with
  | Some w -> List.exists (Rz_util.Strings.equal_ci w) peering_stop_words
  | None -> (match peek st with Some (Lexer.Semicolon | Lexer.Rbrace) | None -> true | _ -> false)

(* Router expressions (RFC 2622 §5.6): addresses, inet-rtr names, rtrs-
   sets, combined with AND/OR/EXCEPT. A lone word classifies by shape:
   parseable address -> Rtr_addr; rtrs- prefix -> Rtr_set; otherwise an
   inet-rtr name. *)
let classify_router_word w =
  if Result.is_ok (Rz_net.Ipaddr.V4.of_string w) || Result.is_ok (Rz_net.Ipaddr.V6.of_string w)
  then Rtr_addr w
  else if Rz_util.Strings.starts_with_ci ~prefix:"RTRS-" w then Rtr_set w
  else Rtr_name w

let rec parse_router_expr st =
  let left = parse_router_term st in
  if eat_kw st "and" then Rtr_and (left, parse_router_expr st)
  else if eat_kw st "or" then Rtr_or (left, parse_router_expr st)
  else if eat_kw st "except" then Rtr_except (left, parse_router_expr st)
  else left

and parse_router_term st =
  match peek st with
  | Some Lexer.Lparen ->
    advance st;
    let inner = parse_router_expr st in
    expect st Lexer.Rparen "expected ) in router expression";
    inner
  | Some (Lexer.Word w) when not (is_keyword w) ->
    advance st;
    classify_router_word w
  | Some t -> raise (Err ("unexpected token in router expression: " ^ Lexer.token_to_string t))
  | None -> raise (Err "truncated router expression")

let parse_router_opt st =
  if is_peering_stop st || is_kw st "at" then None
  else
    match peek st with
    | Some (Lexer.Word _) | Some Lexer.Lparen -> Some (parse_router_expr st)
    | _ -> None

let parse_peering_expr st =
  match peek_word st with
  | Some w
    when (not (is_keyword w))
         && Rz_rpsl.Set_name.classify w = Some Rz_rpsl.Set_name.Peering_set ->
    advance st;
    Peering_set_ref w
  | _ ->
    let as_expr = parse_as_expr_prec st in
    let remote_router = parse_router_opt st in
    let local_router =
      if eat_kw st "at" then Some (parse_router_expr st) else None
    in
    Peering_spec { as_expr; remote_router; local_router }

(* ---------------- Actions ---------------- *)

let action_value_tokens st =
  (* Consume tokens of an action RHS until ';' or a structural keyword;
     RFC 2622 requires a value, so an empty RHS is an error. *)
  let buf = ref [] in
  let rec go () =
    match peek st with
    | Some Lexer.Semicolon | None -> ()
    | Some (Lexer.Word w) when is_keyword w -> ()
    | Some t ->
      advance st;
      buf := Lexer.token_to_string t :: !buf;
      go ()
  in
  go ();
  if !buf = [] then raise (Err "missing action value");
  String.concat " " (List.rev !buf)

let parse_call_args st =
  expect st Lexer.Lparen "expected ( in action call";
  let rec go acc =
    match peek st with
    | Some Lexer.Rparen -> advance st; List.rev acc
    | Some Lexer.Comma -> advance st; go acc
    | Some t -> advance st; go (Lexer.token_to_string t :: acc)
    | None -> raise (Err "unterminated action call")
  in
  go []

let parse_brace_values st =
  expect st Lexer.Lbrace "expected { in action value";
  let rec go acc =
    match peek st with
    | Some Lexer.Rbrace -> advance st; List.rev acc
    | Some Lexer.Comma -> advance st; go acc
    | Some t -> advance st; go (Lexer.token_to_string t :: acc)
    | None -> raise (Err "unterminated { } value")
  in
  go []

let parse_one_action st =
  match peek st with
  | Some (Lexer.Word w) when not (is_keyword w) ->
    advance st;
    (match peek st with
     | Some Lexer.Lparen ->
       (* attr.method(args) — split the word at its last dot *)
       let attr, meth =
         match String.rindex_opt w '.' with
         | Some i ->
           (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
         | None -> (w, "")
       in
       let args = parse_call_args st in
       Method_call (attr, meth, args)
     | Some Lexer.Equals ->
       advance st;
       (match peek st with
        | Some Lexer.Lbrace -> Append_op (w, parse_brace_values st)
        | _ -> Assign (w, action_value_tokens st))
     | Some Lexer.Dot_equals ->
       advance st;
       (match peek st with
        | Some Lexer.Lbrace -> Append_op (w, parse_brace_values st)
        | _ -> Append_op (w, [ action_value_tokens st ]))
     | _ -> raise (Err (Printf.sprintf "malformed action after %S" w)))
  | Some t -> raise (Err ("unexpected token in action: " ^ Lexer.token_to_string t))
  | None -> raise (Err "truncated action")

let parse_actions st =
  (* action a1; a2; ... ; — terminated by accept/announce/from/to. *)
  let rec go acc =
    match peek st with
    | Some (Lexer.Word w) when is_keyword w -> List.rev acc
    | Some Lexer.Semicolon -> advance st; go acc
    | None | Some Lexer.Rbrace -> List.rev acc
    | Some _ -> go (parse_one_action st :: acc)
  in
  go []

(* ---------------- Filters ---------------- *)

let rec parse_filter_expr st =
  let left = parse_filter_and st in
  if eat_kw st "or" then Or_f (left, parse_filter_expr st) else left

and parse_filter_and st =
  let left = parse_filter_not st in
  if eat_kw st "and" then And_f (left, parse_filter_and st) else left

and parse_filter_not st =
  if eat_kw st "not" then Not_f (parse_filter_not st) else parse_filter_primary st

and parse_filter_primary st =
  match peek st with
  | Some Lexer.Lparen ->
    advance st;
    let inner = parse_filter_expr st in
    expect st Lexer.Rparen "expected ) in filter";
    inner
  | Some Lexer.Lbrace ->
    advance st;
    let members = parse_prefix_members st in
    let op =
      match peek_word st with
      | Some w when String.length w > 0 && w.[0] = '^' ->
        advance st;
        (match Rz_net.Range_op.parse w with Ok op -> op | Error e -> raise (Err e))
      | _ -> Rz_net.Range_op.None_
    in
    Prefix_set (members, op)
  | Some (Lexer.Regex text) ->
    advance st;
    (match Rz_aspath.Regex_parse.parse text with
     | Ok ast -> Path_regex ast
     | Error e -> raise (Err ("bad AS-path regex: " ^ e)))
  | Some (Lexer.Word w) when not (is_keyword w) ->
    advance st;
    parse_filter_word st w
  | Some t -> raise (Err ("unexpected token in filter: " ^ Lexer.token_to_string t))
  | None -> raise (Err "truncated filter")

and parse_prefix_members st =
  let rec go acc =
    match peek st with
    | Some Lexer.Rbrace -> advance st; List.rev acc
    | Some Lexer.Comma -> advance st; go acc
    | Some (Lexer.Word w) ->
      advance st;
      let base, op = split_range_op w in
      (match Rz_net.Prefix.of_string base with
       | Ok p -> go ((p, op) :: acc)
       | Error e -> raise (Err e))
    | Some t -> raise (Err ("unexpected token in prefix set: " ^ Lexer.token_to_string t))
    | None -> raise (Err "unterminated prefix set")
  in
  go []

and parse_filter_word st w =
  let upper = Rz_util.Strings.uppercase w in
  if upper = "ANY" || upper = "AS-ANY" || upper = "RS-ANY" then Any
  else if Rz_util.Strings.equal_ci w "PeerAS" then Peer_as_filter
  else if Rz_util.Strings.equal_ci w "fltr-martian" then Fltr_martian
  else if Rz_util.Strings.starts_with_ci ~prefix:"community" w then begin
    let meth =
      match String.index_opt w '.' with
      | Some i -> String.sub w (i + 1) (String.length w - i - 1)
      | None -> ""
    in
    match peek st with
    | Some Lexer.Lparen -> Community (meth, parse_call_args st)
    | Some Lexer.Lbrace -> Community (meth, parse_brace_values st)
    | _ -> raise (Err "community filter without arguments")
  end
  else begin
    let base, op = split_range_op w in
    if word_is_asn base then As_num (Rz_net.Asn.of_string_exn base, op)
    else
      match Rz_rpsl.Set_name.classify base with
      | Some Rz_rpsl.Set_name.As_set when Rz_rpsl.Set_name.is_valid As_set base ->
        As_set_ref (base, op)
      | Some Rz_rpsl.Set_name.Route_set when Rz_rpsl.Set_name.is_valid Route_set base ->
        Route_set_ref (base, op)
      | Some Rz_rpsl.Set_name.Filter_set when Rz_rpsl.Set_name.is_valid Filter_set base ->
        if op = Rz_net.Range_op.None_ then Filter_set_ref base
        else raise (Err "range operator cannot apply to a filter-set")
      | _ ->
        (* A bare prefix is also a valid (degenerate) filter term. *)
        (match Rz_net.Prefix.of_string base with
         | Ok p -> Prefix_set ([ (p, op) ], Rz_net.Range_op.None_)
         | Error _ -> raise (Err (Printf.sprintf "invalid filter keyword %S" w)))
  end

(* ---------------- Factors / terms / expressions ---------------- *)

let parse_factor ~direction st =
  let peering_kw = match direction with `Import -> "from" | `Export -> "to" in
  let verb_kw = match direction with `Import -> "accept" | `Export -> "announce" in
  let rec peering_actions acc =
    if eat_kw st peering_kw then begin
      let peering = parse_peering_expr st in
      let actions = if eat_kw st "action" then parse_actions st else [] in
      peering_actions ({ peering; actions } :: acc)
    end
    else List.rev acc
  in
  let peerings = peering_actions [] in
  if peerings = [] then
    raise (Err (Printf.sprintf "expected %S clause" peering_kw));
  if not (eat_kw st verb_kw) then
    raise (Err (Printf.sprintf "expected %S keyword" verb_kw));
  let filter = parse_filter_expr st in
  ignore (match peek st with Some Lexer.Semicolon -> advance st | _ -> ());
  { peerings; filter }

let parse_afi_list st =
  (* afi ipv4.unicast, ipv6.unicast *)
  let rec words acc =
    match peek st with
    | Some (Lexer.Word w) when not (is_keyword w) ->
      advance st;
      let acc = w :: acc in
      (match peek st with
       | Some Lexer.Comma -> advance st; words acc
       | _ -> List.rev acc)
    | _ -> List.rev acc
  in
  let names = words [] in
  List.map
    (fun name ->
      match Rz_net.Afi.parse name with
      | Ok afi -> afi
      | Error e -> raise (Err e))
    names

let parse_term ~direction st =
  let afi = if eat_kw st "afi" then parse_afi_list st else [] in
  match peek st with
  | Some Lexer.Lbrace ->
    advance st;
    let rec factors acc =
      match peek st with
      | Some Lexer.Rbrace -> advance st; List.rev acc
      | Some Lexer.Semicolon -> advance st; factors acc
      | Some _ -> factors (parse_factor ~direction st :: acc)
      | None -> raise (Err "unterminated { } policy term")
    in
    (match factors [] with
     | [] -> raise (Err "empty { } policy term")
     | parsed -> { afi; factors = parsed })
  | _ -> { afi; factors = [ parse_factor ~direction st ] }

let rec parse_expr ~direction st =
  let term = parse_term ~direction st in
  if eat_kw st "except" then Except_e (term, parse_expr ~direction st)
  else if eat_kw st "refine" then Refine_e (term, parse_expr ~direction st)
  else Term_e term

(* ---------------- Entry points ---------------- *)

let run text f =
  match Lexer.tokenize text with
  | Error e -> Error e
  | Ok toks ->
    let st = { toks } in
    (match f st with
     | result ->
       (match st.toks with
        | [] -> Ok result
        | t :: _ ->
          Error (Printf.sprintf "trailing tokens after policy: %s" (Lexer.token_to_string t)))
     | exception Err msg -> Error msg)

let parse_rule ~direction ~multiprotocol text =
  run text (fun st ->
      let protocol =
        if eat_kw st "protocol" then
          match peek st with
          | Some (Lexer.Word w) -> advance st; Some w
          | _ -> raise (Err "expected protocol name")
        else None
      in
      let into_protocol =
        if eat_kw st "into" then
          match peek st with
          | Some (Lexer.Word w) -> advance st; Some w
          | _ -> raise (Err "expected protocol name after into")
        else None
      in
      let expr = parse_expr ~direction st in
      { direction; multiprotocol; protocol; into_protocol; expr })

let parse_default ~multiprotocol text =
  run text (fun st ->
      let afi = if eat_kw st "afi" then parse_afi_list st else [] in
      if not (eat_kw st "to") then raise (Err "expected \"to\" in default");
      let peering = parse_peering_expr st in
      let actions = if eat_kw st "action" then parse_actions st else [] in
      let networks =
        if eat_kw st "networks" then Some (parse_filter_expr st) else None
      in
      { Ast.peering; actions; networks; multiprotocol; afi })

let parse_filter text = run text parse_filter_expr
let parse_peering text = run text parse_peering_expr
let parse_as_expr text = run text parse_as_expr_prec

let parse_members text =
  (* Members lists are comma-separated; stray whitespace separation also
     appears in the wild, so we accept both. *)
  String.split_on_char ',' text
  |> List.concat_map Rz_util.Strings.split_words
  |> List.filter (fun w -> w <> "")
