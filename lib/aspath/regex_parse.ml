open Regex_ast

type token =
  | T_caret
  | T_dollar
  | T_lparen
  | T_rparen
  | T_lbracket of bool (* negated? *)
  | T_rbracket
  | T_star
  | T_plus
  | T_question
  | T_tilde
  | T_pipe
  | T_lbrace
  | T_rbrace
  | T_comma
  | T_dash
  | T_dot
  | T_int of int          (* inside {m,n} *)
  | T_name of string      (* ASN or as-set name or PeerAS *)

exception Err of string

let tokenize input =
  let n = String.length input in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let is_name_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = ':'
    (* NB: '-' is tokenized separately so ASN ranges work; multi-part
       as-set names containing '-' are re-glued by the parser. *)
  in
  let i = ref 0 in
  while !i < n do
    let c = input.[!i] in
    (match c with
     | ' ' | '\t' | '\n' | '\r' -> incr i
     | '^' ->
       (* '^' right after '[' negates the class; otherwise it is an anchor. *)
       (match !toks with
        | T_lbracket false :: rest -> toks := T_lbracket true :: rest
        | _ -> push T_caret);
       incr i
     | '$' -> push T_dollar; incr i
     | '(' -> push T_lparen; incr i
     | ')' -> push T_rparen; incr i
     | '[' -> push (T_lbracket false); incr i
     | ']' -> push T_rbracket; incr i
     | '*' -> push T_star; incr i
     | '+' -> push T_plus; incr i
     | '?' -> push T_question; incr i
     | '~' -> push T_tilde; incr i
     | '|' -> push T_pipe; incr i
     | '{' -> push T_lbrace; incr i
     | '}' -> push T_rbrace; incr i
     | ',' -> push T_comma; incr i
     | '-' -> push T_dash; incr i
     | '.' -> push T_dot; incr i
     | c when is_name_char c ->
       let start = !i in
       while !i < n && is_name_char input.[!i] do incr i done;
       let word = String.sub input start (!i - start) in
       (match Rz_util.Strings.decimal word with
        | Some v -> push (T_int v)
        | None -> push (T_name word))
     | c -> raise (Err (Printf.sprintf "unexpected character %C in AS-path regex" c)));
  done;
  List.rev !toks

(* Re-glue name-dash-name runs into single hyphenated names when they do
   not form an ASN range (as-set names like AS-FOO-BAR tokenize as
   T_name "AS" :: T_dash :: T_name "FOO" :: ...). An ASN range is exactly
   name(ASN) dash name(ASN). *)
let is_asn_name w =
  match Rz_net.Asn.of_string w with
  | Ok _ -> Rz_util.Strings.starts_with_ci ~prefix:"AS" w
  | Error _ -> false

let reglue tokens =
  let rec go acc = function
    | T_name a :: T_dash :: T_name b :: rest when is_asn_name a && is_asn_name b ->
      (* genuine ASN range *)
      go (T_name b :: T_dash :: T_name a :: acc) rest
    | T_name a :: T_dash :: T_name b :: rest ->
      (* hyphenated name: re-glue and retry (handles AS-FOO-BAR chains) *)
      go acc (T_name (a ^ "-" ^ b) :: rest)
    | T_name a :: T_dash :: T_int b :: rest ->
      go acc (T_name (a ^ "-" ^ string_of_int b) :: rest)
    | tok :: rest -> go (tok :: acc) rest
    | [] -> List.rev acc
  in
  go [] tokens

let parse input =
  match
    let tokens = ref (reglue (tokenize input)) in
    let peek () = match !tokens with [] -> None | t :: _ -> Some t in
    let advance () = match !tokens with [] -> () | _ :: rest -> tokens := rest in
    let expect t msg =
      match peek () with
      | Some x when x = t -> advance ()
      | _ -> raise (Err msg)
    in
    let name_to_term w =
      if Rz_util.Strings.equal_ci w "PeerAS" then Peer_as
      else
        match Rz_net.Asn.of_string w with
        | Ok n when Rz_util.Strings.starts_with_ci ~prefix:"AS" w -> Asn n
        | _ -> As_set w
    in
    (* One term inside or outside a class. *)
    let parse_class_term () =
      match peek () with
      | Some T_dot -> advance (); Wildcard
      | Some (T_name w) ->
        advance ();
        (match peek () with
         | Some T_dash when is_asn_name w ->
           advance ();
           (match peek () with
            | Some (T_name w2) when is_asn_name w2 ->
              advance ();
              Asn_range (Rz_net.Asn.of_string_exn w, Rz_net.Asn.of_string_exn w2)
            | _ -> raise (Err "expected ASN after - in range"))
         | _ -> name_to_term w)
      | _ -> raise (Err "expected a term inside character class")
    in
    let parse_class negated =
      let rec items acc =
        match peek () with
        | Some T_rbracket -> advance (); List.rev acc
        | Some _ -> items (parse_class_term () :: acc)
        | None -> raise (Err "unterminated character class")
      in
      Class (negated, items [])
    in
    let rec parse_alt () =
      let left = parse_seq () in
      match peek () with
      | Some T_pipe ->
        advance ();
        Alt (left, parse_alt ())
      | _ -> left
    and parse_seq () =
      let rec go acc =
        match peek () with
        | None | Some (T_rparen | T_pipe) -> acc
        | Some _ ->
          let atom = parse_postfixed () in
          go (if acc = Empty then atom else Seq (acc, atom))
      in
      go Empty
    and parse_postfixed () =
      let atom = parse_atom () in
      let rec apply node =
        match peek () with
        | Some T_star -> advance (); apply (Star node)
        | Some T_plus -> advance (); apply (Plus node)
        | Some T_question -> advance (); apply (Opt node)
        | Some T_lbrace ->
          advance ();
          let m =
            match peek () with
            | Some (T_int v) -> advance (); v
            | _ -> raise (Err "expected integer in {m,n}")
          in
          let n =
            match peek () with
            | Some T_comma ->
              advance ();
              (match peek () with
               | Some (T_int v) -> advance (); Some v
               | _ -> None)
            | _ -> Some m
          in
          expect T_rbrace "expected } in repetition";
          apply (Repeat (node, m, n))
        | Some T_tilde ->
          advance ();
          let term =
            match node with
            | Term t -> t
            | _ -> raise (Err "~ operator requires a single AS term")
          in
          (match peek () with
           | Some T_star -> advance (); apply (Tilde_star term)
           | Some T_plus -> advance (); apply (Tilde_plus term)
           | _ -> raise (Err "expected * or + after ~"))
        | _ -> node
      in
      apply atom
    and parse_atom () =
      match peek () with
      | Some T_caret -> advance (); Bol
      | Some T_dollar -> advance (); Eol
      | Some T_dot -> advance (); Term Wildcard
      | Some (T_name w) ->
        advance ();
        (match peek () with
         | Some T_dash when is_asn_name w ->
           advance ();
           (match peek () with
            | Some (T_name w2) when is_asn_name w2 ->
              advance ();
              Term (Asn_range (Rz_net.Asn.of_string_exn w, Rz_net.Asn.of_string_exn w2))
            | _ -> raise (Err "expected ASN after - in range"))
         | _ -> Term (name_to_term w))
      | Some (T_int v) ->
        (* A bare number is a plain ASN written without the AS prefix. *)
        advance ();
        Term (Asn v)
      | Some (T_lbracket negated) ->
        advance ();
        Term (parse_class negated)
      | Some T_lparen ->
        advance ();
        let inner = parse_alt () in
        expect T_rparen "expected )";
        inner
      | Some tok ->
        raise
          (Err
             (Printf.sprintf "unexpected token in AS-path regex (%s)"
                (match tok with
                 | T_rparen -> ")"
                 | T_rbracket -> "]"
                 | T_rbrace -> "}"
                 | T_comma -> ","
                 | T_dash -> "-"
                 | _ -> "?")))
      | None -> raise (Err "empty AS-path regex atom")
    in
    let ast = parse_alt () in
    if !tokens <> [] then raise (Err "trailing tokens in AS-path regex");
    ast
  with
  | ast -> Ok ast
  | exception Err msg -> Error msg
