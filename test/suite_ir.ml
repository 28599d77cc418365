(* Tests for rz_ir: lowering RPSL objects into the IR, error recording,
   and the JSON export. *)
module Ir = Rz_ir.Ir
module Lower = Rz_ir.Lower

let lower ?(source = "TEST") text =
  let ir = Ir.create () in
  ignore (Lower.add_dump ir ~source text);
  ir

let test_lower_aut_num () =
  let ir =
    lower
      "aut-num: AS65001\nas-name: EXAMPLE\nimport: from AS1 accept ANY\nimport: from AS2 accept AS2\nexport: to AS1 announce AS65001\nmnt-by: MNT-EX\n"
  in
  match Ir.find_aut_num ir 65001 with
  | None -> Alcotest.fail "aut-num missing"
  | Some an ->
    Alcotest.(check string) "as-name" "EXAMPLE" an.as_name;
    Alcotest.(check int) "imports" 2 (List.length an.imports);
    Alcotest.(check int) "exports" 1 (List.length an.exports);
    Alcotest.(check int) "n_rules" 3 (Ir.n_rules an);
    Alcotest.(check (list string)) "mnt-by" [ "MNT-EX" ] an.mnt_by;
    Alcotest.(check string) "source" "TEST" an.source

let test_lower_mp_rules () =
  let ir =
    lower "aut-num: AS65001\nmp-import: afi ipv6.unicast from AS1 accept ANY\nmp-export: afi any to AS1 announce AS65001\n"
  in
  match Ir.find_aut_num ir 65001 with
  | Some an ->
    Alcotest.(check int) "mp-import counted" 1 (List.length an.imports);
    Alcotest.(check bool) "flagged multiprotocol" true (List.hd an.imports).multiprotocol
  | None -> Alcotest.fail "missing"

let test_lower_bad_rule_is_error () =
  let ir = lower "aut-num: AS65001\nimport: from accept ANY\nexport: to AS1 announce AS65001\n" in
  (match Ir.find_aut_num ir 65001 with
   | Some an ->
     Alcotest.(check int) "bad import dropped" 0 (List.length an.imports);
     Alcotest.(check int) "good export kept" 1 (List.length an.exports)
   | None -> Alcotest.fail "missing");
  Alcotest.(check bool) "error recorded" true
    (List.exists (fun (e : Ir.error) -> match e.kind with Ir.Syntax_error _ -> true | _ -> false)
       ir.errors)

let test_lower_as_set () =
  let ir = lower "as-set: AS-EX\nmembers: AS1, AS2, AS-NESTED\nmbrs-by-ref: MNT-A\n" in
  match Ir.find_as_set ir "as-ex" with
  | Some s ->
    Alcotest.(check (list int)) "asns" [ 1; 2 ] s.member_asns;
    Alcotest.(check (list string)) "sets" [ "AS-NESTED" ] s.member_sets;
    Alcotest.(check bool) "no ANY" false s.contains_any;
    Alcotest.(check (list string)) "mbrs-by-ref" [ "MNT-A" ] s.mbrs_by_ref
  | None -> Alcotest.fail "as-set missing (case-insensitive lookup)"

let test_lower_as_set_with_any () =
  let ir = lower "as-set: AS-HASANY\nmembers: ANY\n" in
  match Ir.find_as_set ir "AS-HASANY" with
  | Some s -> Alcotest.(check bool) "contains_any" true s.contains_any
  | None -> Alcotest.fail "missing"

let test_lower_invalid_as_set_name () =
  let ir = lower "as-set: BADNAME\nmembers: AS1\n" in
  Alcotest.(check bool) "invalid name recorded" true
    (List.exists (fun (e : Ir.error) -> e.kind = Ir.Invalid_as_set_name) ir.errors)

let test_lower_route_set () =
  let ir =
    lower
      "route-set: RS-EX\nmembers: 10.0.0.0/8^+, AS5, RS-OTHER^24-32\nmp-members: 2001:db8::/32\n"
  in
  match Ir.find_route_set ir "RS-EX" with
  | Some s ->
    Alcotest.(check int) "4 members" 4 (List.length s.members);
    (match s.members with
     | [ Ir.Rs_prefix (_, Rz_net.Range_op.Plus); Ir.Rs_asn (5, _); Ir.Rs_set ("RS-OTHER", Rz_net.Range_op.Range (24, 32)); Ir.Rs_prefix (p6, _) ] ->
       Alcotest.(check bool) "v6 member" true (Rz_net.Prefix.is_v6 p6)
     | _ -> Alcotest.fail "unexpected members")
  | None -> Alcotest.fail "route-set missing"

let test_lower_route_objects () =
  let ir =
    lower
      "route: 192.0.2.0/24\norigin: AS65001\nmnt-by: MNT-A\n\nroute6: 2001:db8::/32\norigin: AS65001\n\nroute: 192.0.2.0/24\norigin: AS65002\n"
  in
  Alcotest.(check int) "three route objects" 3 (Ir.n_route_objs ir);
  let origins =
    Ir.fold_routes ir ~init:[] ~f:(fun acc (r : Ir.route_obj) -> r.origin :: acc) |> List.sort compare
  in
  Alcotest.(check (list int)) "origins" [ 65001; 65001; 65002 ] origins

let test_lower_route_dedup () =
  let ir = lower "route: 192.0.2.0/24\norigin: AS65001\n\nroute: 192.0.2.0/24\norigin: AS65001\n" in
  Alcotest.(check int) "same (prefix, origin) deduped" 1 (Ir.n_route_objs ir)

let test_lower_route_dedup_is_per_ir () =
  (* regression: the dedup table must not leak across IR instances *)
  let first = lower "route: 192.0.2.0/24\norigin: AS65001\n" in
  let second = lower "route: 192.0.2.0/24\norigin: AS65001\n" in
  Alcotest.(check int) "first" 1 (Ir.n_route_objs first);
  Alcotest.(check int) "second" 1 (Ir.n_route_objs second)

let test_lower_route_errors () =
  let ir = lower "route: banana\norigin: AS1\n\nroute: 192.0.2.0/24\n\nroute: 192.0.2.0/24\norigin: ASX\n" in
  Alcotest.(check int) "no routes" 0 (Ir.n_route_objs ir);
  Alcotest.(check int) "three errors" 3 (List.length ir.errors)

let test_priority_merge () =
  let ir = Ir.create () in
  ignore (Lower.add_dump ir ~source:"HIGH" "aut-num: AS65001\nas-name: FIRST\n");
  ignore (Lower.add_dump ir ~source:"LOW" "aut-num: AS65001\nas-name: SECOND\n");
  match Ir.find_aut_num ir 65001 with
  | Some an ->
    Alcotest.(check string) "first wins" "FIRST" an.as_name;
    Alcotest.(check string) "source" "HIGH" an.source
  | None -> Alcotest.fail "missing"

let test_lower_peering_and_filter_sets () =
  let ir =
    lower
      "peering-set: PRNG-EX\nperring-typo: ignored\npeering: AS1 at 7.7.7.7\n\nfilter-set: FLTR-EX\nfilter: { 10.0.0.0/8^+ } AND NOT community(65535:666)\n"
  in
  Alcotest.(check bool) "peering-set present" true (Ir.find_peering_set ir "PRNG-EX" <> None);
  Alcotest.(check bool) "filter-set present" true (Ir.find_filter_set ir "FLTR-EX" <> None)

let test_lower_defaults () =
  let ir =
    lower
      "aut-num: AS65001\ndefault: to AS65000 action pref=100; networks ANY\nmp-default: afi ipv6.unicast to AS65000\n"
  in
  match Ir.find_aut_num ir 65001 with
  | Some an ->
    Alcotest.(check int) "two defaults" 2 (List.length an.defaults);
    let first = List.hd an.defaults in
    Alcotest.(check bool) "plain default" false first.multiprotocol;
    Alcotest.(check bool) "has networks filter" true (first.networks <> None);
    Alcotest.(check string) "rendered"
      "default: to AS65000 action pref = 100; networks ANY"
      (Rz_policy.Ast.default_rule_to_string first);
    let second = List.nth an.defaults 1 in
    Alcotest.(check bool) "mp flagged" true second.multiprotocol;
    Alcotest.(check int) "afi recorded" 1 (List.length second.afi)
  | None -> Alcotest.fail "missing"

let test_lower_bad_default () =
  let ir = lower "aut-num: AS65001\ndefault: from AS65000\n" in
  (match Ir.find_aut_num ir 65001 with
   | Some an -> Alcotest.(check int) "bad default dropped" 0 (List.length an.defaults)
   | None -> Alcotest.fail "missing");
  Alcotest.(check bool) "error recorded" true (ir.errors <> [])

let test_lower_mntner () =
  let ir = lower "mntner: MNT-EXAMPLE\nauth: PGPKEY-123\nauth: CRYPT-PW foo\n" in
  match Ir.find_mntner ir "mnt-example" with
  | Some m ->
    Alcotest.(check string) "name" "MNT-EXAMPLE" m.name;
    Alcotest.(check int) "two auth" 2 (List.length m.auth)
  | None -> Alcotest.fail "mntner missing (case-insensitive lookup)"

let test_lower_inet_rtr () =
  let ir =
    lower
      "inet-rtr: RTR1.Example.NET\nlocal-as: AS65001\nifaddr: 192.0.2.1 masklen 30\n\
       peer: BGP4 192.0.2.2 asno(AS65002)\npeer: BGP4 192.0.2.6 asno(AS65003)\n\
       member-of: RTRS-BACKBONE\n"
  in
  (* the table is keyed by the lowercase name *)
  match Hashtbl.find_opt ir.Ir.inet_rtrs "rtr1.example.net" with
  | Some rtr ->
    Alcotest.(check (option int)) "local-as" (Some 65001) rtr.local_as;
    Alcotest.(check int) "ifaddrs" 1 (List.length rtr.ifaddrs);
    Alcotest.(check (list (pair string int))) "peers"
      [ ("192.0.2.2", 65002); ("192.0.2.6", 65003) ]
      rtr.bgp_peers;
    Alcotest.(check (list string)) "member-of" [ "RTRS-BACKBONE" ] rtr.rtr_member_of
  | None -> Alcotest.fail "inet-rtr missing under its lowercase name"

let test_lower_rtr_set () =
  let ir = lower "rtr-set: RTRS-BACKBONE\nmembers: rtr1.example.net, RTRS-EDGE\n" in
  match Hashtbl.find_opt ir.Ir.rtr_sets "RTRS-BACKBONE" with
  | Some s -> Alcotest.(check int) "two members" 2 (List.length s.members)
  | None -> Alcotest.fail "rtr-set missing"

let test_json_export_roundtrip () =
  let ir =
    lower
      "aut-num: AS65001\nimport: from AS1 accept ANY\n\nas-set: AS-EX\nmembers: AS1\n\nroute: 192.0.2.0/24\norigin: AS65001\n"
  in
  let text = Rz_ir.Ir_json.export_string ~indent:2 ir in
  match Rz_json.Json.of_string text with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    let count key =
      match Rz_json.Json.member key doc with
      | Some (Rz_json.Json.List items) -> List.length items
      | _ -> -1
    in
    Alcotest.(check int) "aut_nums" 1 (count "aut_nums");
    Alcotest.(check int) "as_sets" 1 (count "as_sets");
    Alcotest.(check int) "routes" 1 (count "routes");
    Alcotest.(check bool) "mntners key present" true
      (Rz_json.Json.member "mntners" doc <> None);
    Alcotest.(check bool) "inet_rtrs key present" true
      (Rz_json.Json.member "inet_rtrs" doc <> None)

let test_json_rule_structure () =
  let ir = lower "aut-num: AS65001\nimport: from AS1 action pref=10; accept AS-FOO^+\n" in
  let doc =
    let ( >>= ) = Option.bind in
    Rz_json.Json.member "aut_nums" (Rz_ir.Ir_json.export ir) >>= function
    | Rz_json.Json.List [ an ] -> (
      Rz_json.Json.member "imports" an >>= function
      | Rz_json.Json.List [ rule ] -> Some rule
      | _ -> None)
    | _ -> None
  in
  let doc = match doc with Some d -> d | None -> Alcotest.fail "one exported import rule" in
  Alcotest.(check bool) "direction field" true
    (Rz_json.Json.member "direction" doc = Some (Rz_json.Json.String "import"));
  Alcotest.(check bool) "has text field" true (Rz_json.Json.member "text" doc <> None)

let suite =
  [ Alcotest.test_case "lower aut-num" `Quick test_lower_aut_num;
    Alcotest.test_case "lower mp rules" `Quick test_lower_mp_rules;
    Alcotest.test_case "bad rule -> error" `Quick test_lower_bad_rule_is_error;
    Alcotest.test_case "lower as-set" `Quick test_lower_as_set;
    Alcotest.test_case "as-set with ANY" `Quick test_lower_as_set_with_any;
    Alcotest.test_case "invalid as-set name" `Quick test_lower_invalid_as_set_name;
    Alcotest.test_case "lower route-set" `Quick test_lower_route_set;
    Alcotest.test_case "lower route objects" `Quick test_lower_route_objects;
    Alcotest.test_case "route dedup" `Quick test_lower_route_dedup;
    Alcotest.test_case "route dedup per IR" `Quick test_lower_route_dedup_is_per_ir;
    Alcotest.test_case "route errors" `Quick test_lower_route_errors;
    Alcotest.test_case "priority merge" `Quick test_priority_merge;
    Alcotest.test_case "peering/filter sets" `Quick test_lower_peering_and_filter_sets;
    Alcotest.test_case "lower defaults" `Quick test_lower_defaults;
    Alcotest.test_case "bad default -> error" `Quick test_lower_bad_default;
    Alcotest.test_case "lower mntner" `Quick test_lower_mntner;
    Alcotest.test_case "lower inet-rtr" `Quick test_lower_inet_rtr;
    Alcotest.test_case "lower rtr-set" `Quick test_lower_rtr_set;
    Alcotest.test_case "json export roundtrip" `Quick test_json_export_roundtrip;
    Alcotest.test_case "json rule structure" `Quick test_json_rule_structure ]
