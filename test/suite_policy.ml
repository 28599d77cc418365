(* Tests for rz_policy: lexer, peering/action/filter/rule parsing,
   including the paper's real-world examples (AS38639, AS8323, AS14595,
   AS199284). *)
open Rz_policy
module Ast = Rz_policy.Ast

let rule dir mp text =
  match Parser.parse_rule ~direction:dir ~multiprotocol:mp text with
  | Ok r -> r
  | Error e -> Alcotest.fail (text ^ ": " ^ e)

let filter text =
  match Parser.parse_filter text with Ok f -> f | Error e -> Alcotest.fail (text ^ ": " ^ e)

(* ---------------- lexer ---------------- *)

let test_lexer_tokens () =
  match Lexer.tokenize "from AS1 action pref=10; community .= {65000:1}; accept <^AS1$> AND NOT {10.0.0.0/8^+}" with
  | Error e -> Alcotest.fail e
  | Ok toks ->
    let strings = List.map Lexer.token_to_string toks in
    Alcotest.(check bool) "has regex token" true (List.mem "<^AS1$>" strings);
    Alcotest.(check bool) "has .= token" true (List.mem ".=" strings);
    Alcotest.(check bool) "has = token" true (List.mem "=" strings);
    Alcotest.(check bool) "prefix keeps op" true (List.mem "10.0.0.0/8^+" strings)

let test_lexer_unterminated_regex () =
  Alcotest.(check bool) "error" true (Result.is_error (Lexer.tokenize "accept <^AS1"))

(* ---------------- peerings ---------------- *)

let test_peering_simple_asn () =
  match Parser.parse_peering "AS65001" with
  | Ok (Ast.Peering_spec { as_expr = Ast.Asn 65001; remote_router = None; local_router = None }) -> ()
  | Ok _ -> Alcotest.fail "unexpected peering"
  | Error e -> Alcotest.fail e

let test_peering_as_any () =
  match Parser.parse_peering "AS-ANY" with
  | Ok (Ast.Peering_spec { as_expr = Ast.Any_as; _ }) -> ()
  | _ -> Alcotest.fail "expected AS-ANY"

let test_peering_set_ref () =
  match Parser.parse_peering "PRNG-EXAMPLE" with
  | Ok (Ast.Peering_set_ref "PRNG-EXAMPLE") -> ()
  | _ -> Alcotest.fail "expected peering-set ref"

let test_peering_routers () =
  (match Parser.parse_peering "AS1 7.7.7.2 at 7.7.7.1" with
   | Ok (Ast.Peering_spec
           { as_expr = Ast.Asn 1;
             remote_router = Some (Ast.Rtr_addr "7.7.7.2");
             local_router = Some (Ast.Rtr_addr "7.7.7.1") }) -> ()
   | Ok _ -> Alcotest.fail "unexpected peering"
   | Error e -> Alcotest.fail e);
  (* inet-rtr names and rtrs- sets classify structurally *)
  (match Parser.parse_peering "AS1 rtrs-backbone at rtr1.example.net" with
   | Ok (Ast.Peering_spec
           { remote_router = Some (Ast.Rtr_set "rtrs-backbone");
             local_router = Some (Ast.Rtr_name "rtr1.example.net"); _ }) -> ()
   | Ok _ -> Alcotest.fail "unexpected peering"
   | Error e -> Alcotest.fail e);
  (* composite router expressions *)
  match Parser.parse_peering "AS1 (7.7.7.2 OR 7.7.7.3)" with
  | Ok (Ast.Peering_spec
          { remote_router = Some (Ast.Rtr_or (Ast.Rtr_addr "7.7.7.2", Ast.Rtr_addr "7.7.7.3")); _ }) -> ()
  | Ok _ -> Alcotest.fail "unexpected peering"
  | Error e -> Alcotest.fail e

let test_peering_expression () =
  match Parser.parse_peering "AS1 OR AS2 AND AS-FOO" with
  | Ok (Ast.Peering_spec
          { as_expr = Ast.And (Ast.Or (Ast.Asn 1, Ast.Asn 2), Ast.As_set "AS-FOO"); _ }) -> ()
  | Ok _ -> Alcotest.fail "unexpected as-expression"
  | Error e -> Alcotest.fail e

let test_peering_except () =
  (* the paper's AS199284 final refine: AS-ANY EXCEPT (a OR b OR c) *)
  match Parser.parse_peering "AS-ANY EXCEPT (AS40027 OR AS63293 OR AS65535)" with
  | Ok (Ast.Peering_spec { as_expr = Ast.Except_as (Ast.Any_as, _); _ }) -> ()
  | Ok _ -> Alcotest.fail "unexpected as-expression"
  | Error e -> Alcotest.fail e

let test_peering_hierarchical_set () =
  match Parser.parse_peering "AS8267:AS-Krakow-1014" with
  | Ok (Ast.Peering_spec { as_expr = Ast.As_set "AS8267:AS-Krakow-1014"; _ }) -> ()
  | _ -> Alcotest.fail "expected hierarchical as-set"

(* ---------------- filters ---------------- *)

let test_filter_keywords () =
  Alcotest.(check bool) "ANY" true (filter "ANY" = Ast.Any);
  Alcotest.(check bool) "AS-ANY as filter" true (filter "AS-ANY" = Ast.Any);
  Alcotest.(check bool) "PeerAS" true (filter "PeerAS" = Ast.Peer_as_filter);
  Alcotest.(check bool) "fltr-martian" true (filter "fltr-martian" = Ast.Fltr_martian)

let test_filter_asn_with_op () =
  (match filter "AS65001" with
   | Ast.As_num (65001, Rz_net.Range_op.None_) -> ()
   | f -> Alcotest.fail (Ast.filter_to_string f));
  match filter "AS65001^24-32" with
  | Ast.As_num (65001, Rz_net.Range_op.Range (24, 32)) -> ()
  | f -> Alcotest.fail (Ast.filter_to_string f)

let test_filter_set_refs () =
  (match filter "AS-HANABI^+" with
   | Ast.As_set_ref ("AS-HANABI", Rz_net.Range_op.Plus) -> ()
   | f -> Alcotest.fail (Ast.filter_to_string f));
  (* route-set with range op: the non-standard syntax the paper supports *)
  (match filter "RS-ROUTES^24" with
   | Ast.Route_set_ref ("RS-ROUTES", Rz_net.Range_op.Exact 24) -> ()
   | f -> Alcotest.fail (Ast.filter_to_string f));
  match filter "FLTR-BOGONS" with
  | Ast.Filter_set_ref "FLTR-BOGONS" -> ()
  | f -> Alcotest.fail (Ast.filter_to_string f)

let test_filter_prefix_set () =
  match filter "{ 128.9.0.0/16, 128.8.0.0/16^+, 128.7.128.0/17^24-25 }^-" with
  | Ast.Prefix_set ([ (_, op1); (_, op2); (_, op3) ], outer) ->
    Alcotest.(check bool) "member ops" true
      (op1 = Rz_net.Range_op.None_ && op2 = Rz_net.Range_op.Plus
       && op3 = Rz_net.Range_op.Range (24, 25));
    Alcotest.(check bool) "outer op" true (outer = Rz_net.Range_op.Minus)
  | f -> Alcotest.fail (Ast.filter_to_string f)

let test_filter_composite () =
  match filter "ANY AND NOT {0.0.0.0/0, ::/0}" with
  | Ast.And_f (Ast.Any, Ast.Not_f (Ast.Prefix_set ([ _; _ ], _))) -> ()
  | f -> Alcotest.fail (Ast.filter_to_string f)

let test_filter_or_precedence () =
  (* AND binds tighter than OR *)
  match filter "AS1 OR AS2 AND AS3" with
  | Ast.Or_f (Ast.As_num (1, _), Ast.And_f (Ast.As_num (2, _), Ast.As_num (3, _))) -> ()
  | f -> Alcotest.fail (Ast.filter_to_string f)

let test_filter_regex () =
  match filter "<^AS13911 AS6327+$>" with
  | Ast.Path_regex _ -> ()
  | f -> Alcotest.fail (Ast.filter_to_string f)

let test_filter_community () =
  (match filter "community(65535:666)" with
   | Ast.Community ("", [ "65535:666" ]) -> ()
   | f -> Alcotest.fail (Ast.filter_to_string f));
  match filter "community.contains(65000:1, 65000:2)" with
  | Ast.Community ("contains", [ "65000:1"; "65000:2" ]) -> ()
  | f -> Alcotest.fail (Ast.filter_to_string f)

let test_filter_bare_prefix () =
  match filter "192.0.2.0/24^+" with
  | Ast.Prefix_set ([ (_, Rz_net.Range_op.Plus) ], Rz_net.Range_op.None_) -> ()
  | f -> Alcotest.fail (Ast.filter_to_string f)

let test_filter_errors () =
  let bad s = Alcotest.(check bool) s true (Result.is_error (Parser.parse_filter s)) in
  bad "";
  bad "NOT";
  bad "(AS1";
  bad "FOO-BAR";
  bad "{10.0.0.0/8";
  bad "AS1 AND"

(* ---------------- rules ---------------- *)

let test_rule_simple_export () =
  (* AS38639's rule from Section 2 *)
  let r = rule `Export false "to AS4713 announce AS-HANABI" in
  match r.expr with
  | Ast.Term_e { afi = []; factors = [ { peerings = [ pa ]; filter = Ast.As_set_ref ("AS-HANABI", _) } ] } ->
    (match pa.peering with
     | Ast.Peering_spec { as_expr = Ast.Asn 4713; _ } -> ()
     | _ -> Alcotest.fail "wrong peering")
  | _ -> Alcotest.fail "wrong structure"

let test_rule_multiple_peerings_share_filter () =
  (* AS8323's rule from Appendix A: two from-clauses, one filter *)
  let r =
    rule `Import false
      "from AS8267:AS-Krakow-1014 action pref=50; from AS8267:AS-Krakow-1015 action pref=50; accept PeerAS"
  in
  match r.expr with
  | Ast.Term_e { factors = [ { peerings = [ pa1; pa2 ]; filter = Ast.Peer_as_filter } ]; _ } ->
    Alcotest.(check bool) "pref 1" true (pa1.actions = [ Ast.Assign ("pref", "50") ]);
    Alcotest.(check bool) "pref 2" true (pa2.actions = [ Ast.Assign ("pref", "50") ])
  | _ -> Alcotest.fail "wrong structure"

let test_rule_refine_with_afi () =
  (* AS14595's compound rule from Section 2 *)
  let r =
    rule `Import true
      "afi any.unicast from AS13911 accept ANY AND NOT {0.0.0.0/0, ::0/0} REFINE afi ipv4.unicast from AS13911 action pref=200; accept <^AS13911 AS6327+$>"
  in
  match r.expr with
  | Ast.Refine_e (outer, Ast.Term_e inner) ->
    Alcotest.(check int) "outer afi count" 1 (List.length outer.afi);
    Alcotest.(check string) "outer afi" "any.unicast" (Rz_net.Afi.to_string (List.hd outer.afi));
    Alcotest.(check string) "inner afi" "ipv4.unicast" (Rz_net.Afi.to_string (List.hd inner.afi));
    (match (List.hd inner.factors).peerings with
     | [ pa ] -> Alcotest.(check bool) "pref" true (pa.actions = [ Ast.Assign ("pref", "200") ])
     | _ -> Alcotest.fail "inner peerings")
  | _ -> Alcotest.fail "expected refine"

let test_rule_braced_factors () =
  let r =
    rule `Import true
      "afi any { from AS1 accept ANY; from AS2 accept AS2; } REFINE afi any { from AS-ANY accept NOT AS9^+; }"
  in
  match r.expr with
  | Ast.Refine_e (outer, Ast.Term_e inner) ->
    Alcotest.(check int) "outer factors" 2 (List.length outer.factors);
    Alcotest.(check int) "inner factors" 1 (List.length inner.factors)
  | _ -> Alcotest.fail "expected refine with braces"

let test_rule_except () =
  let r = rule `Import false "from AS1 accept ANY EXCEPT from AS2 accept AS2" in
  match r.expr with
  | Ast.Except_e (_, Ast.Term_e _) -> ()
  | _ -> Alcotest.fail "expected except"

let test_rule_protocol_prefix () =
  let r = rule `Import false "protocol BGP4 into BGP4 from AS1 accept ANY" in
  Alcotest.(check (option string)) "protocol" (Some "BGP4") r.protocol;
  Alcotest.(check (option string)) "into" (Some "BGP4") r.into_protocol

let test_rule_action_method_calls () =
  let r =
    rule `Import false
      "from AS-ANY action community.delete(64628:10, 64628:11); accept ANY"
  in
  match r.expr with
  | Ast.Term_e { factors = [ { peerings = [ pa ]; _ } ]; _ } ->
    (match pa.actions with
     | [ Ast.Method_call ("community", "delete", [ "64628:10"; "64628:11" ]) ] -> ()
     | _ -> Alcotest.fail "wrong actions")
  | _ -> Alcotest.fail "wrong structure"

let test_rule_action_append () =
  let r = rule `Import false "from AS15725 action community .= { 64628:20 }; accept ANY" in
  match r.expr with
  | Ast.Term_e { factors = [ { peerings = [ pa ]; _ } ]; _ } ->
    (match pa.actions with
     | [ Ast.Append_op ("community", [ "64628:20" ]) ] -> ()
     | _ -> Alcotest.fail "wrong actions")
  | _ -> Alcotest.fail "wrong structure"

let test_rule_as199284_full () =
  (* The full monster rule from Appendix A parses. *)
  let text =
    "afi any { from AS-ANY action community.delete(64628:10, 64628:11, 64628:12); accept ANY; } \
     REFINE afi any { from AS-ANY action pref = 65535; accept community(65535:0); from AS-ANY action pref = 65435; accept ANY; } \
     REFINE afi any { from AS-ANY accept NOT AS199284^+; } \
     REFINE afi ipv4 { from AS-ANY accept NOT fltr-martian; } \
     REFINE afi ipv4 { from AS-ANY accept { 0.0.0.0/0^24 } AND NOT community(65535:666); from AS-ANY accept { 0.0.0.0/0^24-32 } AND community(65535:666); } \
     REFINE afi ipv6 { from AS-ANY accept { 2000::/3^4-48 } AND NOT community(65535:666); from AS-ANY accept { 2000::/3^64-128 } AND community(65535:666); } \
     REFINE afi any { from AS15725 action community .= { 64628:20 }; accept AS-IKS AND <AS-IKS+$>; from AS-ANY action community .= { 64628:22 }; accept PeerAS and <^PeerAS+$>; } \
     REFINE afi any { from AS-ANY EXCEPT (AS40027 OR AS63293 OR AS65535) accept ANY; }"
  in
  let r = rule `Import true text in
  let rec levels = function
    | Ast.Term_e _ -> 1
    | Ast.Except_e (_, rest) | Ast.Refine_e (_, rest) -> 1 + levels rest
  in
  Alcotest.(check int) "8 refine levels" 8 (levels r.expr)

let test_rule_errors () =
  let bad dir s =
    Alcotest.(check bool) s true
      (Result.is_error (Parser.parse_rule ~direction:dir ~multiprotocol:false s))
  in
  bad `Import "";
  bad `Import "from accept ANY";
  bad `Import "accept ANY";
  bad `Import "from AS1 announce ANY" (* wrong verb for imports *);
  bad `Import "from AS0x10 accept ANY" (* an ASN is decimal, never hex *);
  bad `Export "to AS1 accept ANY";
  bad `Import "from AS1 accept";
  bad `Import "from AS1 accept ANY trailing garbage";
  (* RFC 2622: an assignment or append action carries a value *)
  bad `Import "from AS1 action pref=; accept ANY";
  bad `Import "from AS1 action community .= ; accept ANY";
  bad `Import "from AS1 action pref=100; med=; accept ANY";
  (* RFC 2622: at least one action, each ended by ';' *)
  bad `Import "from AS2 action ; accept ANY";
  bad `Import "from AS2 action accept ANY";
  bad `Export "to AS2 action med=5 announce ANY";
  bad `Export "to AS2 action med=5; pref=1 announce ANY"

let test_rule_roundtrip_reparse () =
  (* parse |> to_string |> parse is a fixpoint on the AST *)
  List.iter
    (fun (dir, mp, text) ->
      let r1 = rule dir mp text in
      let rendered = Ast.rule_to_string r1 in
      let body =
        (* strip the "attr: " prefix the renderer adds *)
        match String.index_opt rendered ':' with
        | Some i -> String.sub rendered (i + 1) (String.length rendered - i - 1)
        | None -> rendered
      in
      let r2 = rule dir mp body in
      Alcotest.(check string) ("roundtrip " ^ text) rendered (Ast.rule_to_string r2))
    [ (`Export, false, "to AS4713 announce AS-HANABI");
      (`Import, false, "from AS1 action pref=10; accept { 10.0.0.0/8^16-24 }");
      (`Import, false, "from AS1 action pref=100; community .= { 65000:1 }; accept ANY");
      (`Import, true, "afi ipv6.unicast from AS1 accept ANY AND NOT {::/0}");
      (`Import, false, "from AS1 accept ANY EXCEPT from AS2 accept AS2");
      (`Import, false, "from AS-ANY accept PeerAS AND <^PeerAS+$>") ]

let test_parse_members () =
  Alcotest.(check (list string)) "commas and spaces" [ "AS1"; "AS2"; "AS-X" ]
    (Parser.parse_members "AS1, AS2,AS-X");
  Alcotest.(check (list string)) "whitespace only" [ "AS1"; "AS2" ]
    (Parser.parse_members "AS1 AS2");
  Alcotest.(check (list string)) "empty" [] (Parser.parse_members "  ")

let suite =
  [ Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer unterminated regex" `Quick test_lexer_unterminated_regex;
    Alcotest.test_case "peering simple asn" `Quick test_peering_simple_asn;
    Alcotest.test_case "peering AS-ANY" `Quick test_peering_as_any;
    Alcotest.test_case "peering set ref" `Quick test_peering_set_ref;
    Alcotest.test_case "peering routers" `Quick test_peering_routers;
    Alcotest.test_case "peering expression" `Quick test_peering_expression;
    Alcotest.test_case "peering except" `Quick test_peering_except;
    Alcotest.test_case "peering hierarchical set" `Quick test_peering_hierarchical_set;
    Alcotest.test_case "filter keywords" `Quick test_filter_keywords;
    Alcotest.test_case "filter asn with op" `Quick test_filter_asn_with_op;
    Alcotest.test_case "filter set refs" `Quick test_filter_set_refs;
    Alcotest.test_case "filter prefix set" `Quick test_filter_prefix_set;
    Alcotest.test_case "filter composite" `Quick test_filter_composite;
    Alcotest.test_case "filter precedence" `Quick test_filter_or_precedence;
    Alcotest.test_case "filter regex" `Quick test_filter_regex;
    Alcotest.test_case "filter community" `Quick test_filter_community;
    Alcotest.test_case "filter bare prefix" `Quick test_filter_bare_prefix;
    Alcotest.test_case "filter errors" `Quick test_filter_errors;
    Alcotest.test_case "rule simple export (AS38639)" `Quick test_rule_simple_export;
    Alcotest.test_case "rule shared filter (AS8323)" `Quick test_rule_multiple_peerings_share_filter;
    Alcotest.test_case "rule refine with afi (AS14595)" `Quick test_rule_refine_with_afi;
    Alcotest.test_case "rule braced factors" `Quick test_rule_braced_factors;
    Alcotest.test_case "rule except" `Quick test_rule_except;
    Alcotest.test_case "rule protocol prefix" `Quick test_rule_protocol_prefix;
    Alcotest.test_case "rule action method calls" `Quick test_rule_action_method_calls;
    Alcotest.test_case "rule action append" `Quick test_rule_action_append;
    Alcotest.test_case "rule AS199284 full" `Quick test_rule_as199284_full;
    Alcotest.test_case "rule errors" `Quick test_rule_errors;
    Alcotest.test_case "rule roundtrip reparse" `Quick test_rule_roundtrip_reparse;
    Alcotest.test_case "parse members" `Quick test_parse_members ]
