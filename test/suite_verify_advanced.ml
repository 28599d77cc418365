(* Advanced verification-engine semantics: composite peerings, nested
   sets, afi lists, and the full Appendix-C route as a regression test. *)
module Db = Rz_irr.Db
module Rel_db = Rz_asrel.Rel_db
module Engine = Rz_verify.Engine
module Status = Rz_verify.Status
module Report = Rz_verify.Report

let p = Rz_net.Prefix.of_string_exn

let rels () =
  let t = Rel_db.create () in
  Rel_db.add_p2p t 100 200;
  Rel_db.set_clique t [ 100; 200 ];
  Rel_db.add_p2c t ~provider:100 ~customer:10;
  Rel_db.add_p2c t ~provider:200 ~customer:20;
  Rel_db.add_p2p t 10 20;
  Rel_db.add_p2c t ~provider:10 ~customer:1;
  Rel_db.add_p2c t ~provider:10 ~customer:2;
  t

let engine ?config rpsl = Engine.create ?config (Db.of_dumps [ ("TEST", rpsl) ]) (rels ())

let check_status name expected (hop : Report.hop) =
  Alcotest.(check string) name (Status.to_string expected) (Status.to_string hop.status)

let test_peering_except_expression () =
  (* from AS-ANY EXCEPT AS20: matches everyone but AS20 *)
  let e = engine "aut-num: AS10\nimport: from AS-ANY EXCEPT AS20 accept ANY\n" in
  check_status "non-excluded remote verifies" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:77
       ~prefix:(p "192.0.2.0/24") ~path:[| 77 |]);
  let excluded =
    Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
      ~prefix:(p "192.0.2.0/24") ~path:[| 20 |]
  in
  Alcotest.(check bool) "excluded remote does not verify" true
    (excluded.status <> Status.Verified)

let test_peering_or_expression () =
  let e = engine "aut-num: AS10\nimport: from AS20 OR AS77 accept ANY\n" in
  check_status "first alternative" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20 |]);
  check_status "second alternative" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:77
       ~prefix:(p "192.0.2.0/24") ~path:[| 77 |])

let test_peering_as_set_expression () =
  let e =
    engine
      "aut-num: AS10\nimport: from AS-PEERS accept ANY\n\nas-set: AS-PEERS\nmembers: AS20, AS77\n"
  in
  check_status "member matches" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:77
       ~prefix:(p "192.0.2.0/24") ~path:[| 77 |]);
  let non_member =
    Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:88
      ~prefix:(p "192.0.2.0/24") ~path:[| 88 |]
  in
  Alcotest.(check bool) "non-member misses" true (non_member.status <> Status.Verified)

let test_second_rule_matches () =
  let e =
    engine
      "aut-num: AS10\nimport: from AS20 accept { 198.51.100.0/24 }\nimport: from AS20 accept { 192.0.2.0/24 }\n"
  in
  check_status "later rule wins" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20 |])

let test_second_peering_in_factor () =
  (* AS8323 style: two from-clauses sharing one filter *)
  let e =
    engine "aut-num: AS10\nimport: from AS88 from AS20 accept { 192.0.2.0/24 }\n"
  in
  check_status "second peering matches" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20 |])

let test_nested_filter_sets () =
  let e =
    engine
      "aut-num: AS10\nimport: from AS20 accept FLTR-OUTER\n\n\
       filter-set: FLTR-OUTER\nfilter: FLTR-INNER AND ANY\n\n\
       filter-set: FLTR-INNER\nfilter: { 192.0.2.0/24^+ }\n"
  in
  check_status "filter-sets nest" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20 |]);
  let e2 =
    engine
      "aut-num: AS10\nimport: from AS20 accept FLTR-OUTER\n\n\
       filter-set: FLTR-OUTER\nfilter: FLTR-GONE\n"
  in
  check_status "missing nested filter-set is unrecorded"
    (Status.Unrecorded (Status.Unrecorded_filter_set "FLTR-GONE"))
    (Engine.verify_hop e2 ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20 |])

let test_route_set_minus_op () =
  let e =
    engine
      "aut-num: AS10\nimport: from AS20 accept RS-NETS^-\n\n\
       route-set: RS-NETS\nmembers: 192.0.2.0/24\n"
  in
  let exact =
    Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
      ~prefix:(p "192.0.2.0/24") ~path:[| 20 |]
  in
  Alcotest.(check bool) "^- excludes the exact prefix" true (exact.status <> Status.Verified);
  check_status "^- takes more-specifics" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.128/25") ~path:[| 20 |])

let test_v6_route_set () =
  let e =
    engine
      "aut-num: AS10\nmp-import: afi ipv6.unicast from AS20 accept RS-SIX\n\n\
       route-set: RS-SIX\nmp-members: 2001:db8::/32^+\n"
  in
  check_status "v6 route-set member" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "2001:db8:1::/48") ~path:[| 20 |])

let test_afi_list_both_families () =
  let e =
    engine
      "aut-num: AS10\nmp-import: afi ipv4.unicast, ipv6.unicast from AS20 accept ANY\n"
  in
  check_status "v4 via afi list" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20 |]);
  check_status "v6 via afi list" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "2001:db8::/32") ~path:[| 20 |])

let test_protocol_prefix_is_transparent () =
  let e = engine "aut-num: AS10\nimport: protocol BGP4 into BGP4 from AS20 accept ANY\n" in
  check_status "protocol prefix ignored for matching" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20 |])

let test_community_action_is_not_skip () =
  (* community in ACTION position is interpretable; only community
     FILTERS are skipped *)
  let e =
    engine
      "aut-num: AS10\nimport: from AS20 action community .= { 65000:1 }; accept ANY\n"
  in
  check_status "community action fine" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20 |])

let test_hierarchical_set_names_resolve () =
  let e =
    engine
      "aut-num: AS10\nimport: from AS20 accept AS20:AS-CUST\n\n\
       as-set: AS20:AS-CUST\nmembers: AS77\n\n\
       route: 192.0.2.0/24\norigin: AS77\n"
  in
  check_status "hierarchical as-set filter" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20; 77 |])

let test_verified_hop_reports_attrs () =
  (* the AS8323 pattern: pref=50 on the matching peering -> LocalPref
     65485 via the RFC inversion *)
  let e =
    engine
      "aut-num: AS10\nimport: from AS20 action pref=50; community .= { 65000:7 }; accept ANY\n"
  in
  let hop =
    Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
      ~prefix:(p "192.0.2.0/24") ~path:[| 20 |]
  in
  check_status "verifies" Status.Verified hop;
  match hop.attrs with
  | Some attrs ->
    Alcotest.(check (option int)) "LocalPref inverted" (Some 65485)
      attrs.Rz_policy.Action_eval.local_pref;
    Alcotest.(check (list (pair int int))) "community" [ (65000, 7) ] attrs.communities
  | None -> Alcotest.fail "expected computed attributes"

let test_unmatched_peering_actions_not_applied () =
  (* two peerings share the factor; only the matching one's actions count *)
  let e =
    engine
      "aut-num: AS10\nimport: from AS88 action pref=10; from AS20 action pref=50; accept ANY\n"
  in
  let hop =
    Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
      ~prefix:(p "192.0.2.0/24") ~path:[| 20 |]
  in
  match hop.attrs with
  | Some attrs ->
    Alcotest.(check (option int)) "only AS20's pref applies" (Some 65485)
      attrs.Rz_policy.Action_eval.local_pref
  | None -> Alcotest.fail "expected attributes"

(* ---------------- the full Appendix C route ---------------- *)

let appendix_c_engine () =
  let rpsl =
    "aut-num: AS141893\n\
     export: to AS58552 announce AS141893\n\
     export: to AS131755 announce AS141893\n\
     import: from AS58552 accept ANY\n\
     \n\
     aut-num: AS56239\n\
     export: to AS133840 announce AS56239\n\
     import: from AS55685 accept ANY\n\
     import: from AS133840 accept ANY\n\
     \n\
     aut-num: AS133840\n\
     import: from AS55685 accept ANY\n\
     export: to AS55685 announce AS133840\n\
     \n\
     aut-num: AS6939\n\
     import: from AS-ANY accept ANY\n\
     export: to AS-ANY announce AS-HURRICANE\n\
     \n\
     aut-num: AS1299\n\
     import: from AS6939 accept ANY\n\
     export: to AS3257 announce AS1299:AS-TWELVE99-CUSTOMER-V4 AND AS1299:AS-TWELVE99-PEER-V4\n\
     \n\
     aut-num: AS3257\n\
     import: from AS12 accept AS12\n\
     \n\
     as-set: AS-HURRICANE\n\
     members: AS6939, AS133840, AS56239, AS141893\n\
     \n\
     route: 103.162.114.0/23\norigin: AS141893\n\
     \n\
     route: 27.100.0.0/24\norigin: AS56239\n\
     \n\
     route: 184.104.0.0/15\norigin: AS6939\n"
  in
  let rels = Rel_db.create () in
  Rel_db.add_p2c rels ~provider:56239 ~customer:141893;
  Rel_db.add_p2c rels ~provider:56239 ~customer:137296;
  Rel_db.add_p2c rels ~provider:133840 ~customer:56239;
  Rel_db.add_p2c rels ~provider:6939 ~customer:133840;
  Rel_db.add_p2p rels 6939 1299;
  Rel_db.add_p2p rels 1299 3257;
  Rel_db.add_p2c rels ~provider:55685 ~customer:56239;
  Rel_db.add_p2c rels ~provider:55685 ~customer:133840;
  Rel_db.set_clique rels [ 1299; 3257 ];
  Engine.create (Db.of_dumps [ ("MIXED", rpsl) ]) rels

let test_appendix_c_route () =
  let engine = appendix_c_engine () in
  let route =
    Rz_bgp.Route.make (p "103.162.114.0/23") [ 3257; 1299; 6939; 133840; 56239; 141893 ]
  in
  match Engine.explain_route engine route with
  | None -> Alcotest.fail "route excluded"
  | Some report ->
    let expected =
      (* origin-side first: (direction, from, to, status class) *)
      [ (`Export, 141893, 56239, "unverified");
        (`Import, 141893, 56239, "safelisted");
        (`Export, 56239, 133840, "relaxed");
        (`Import, 56239, 133840, "safelisted");
        (`Export, 133840, 6939, "safelisted");
        (`Import, 133840, 6939, "verified");
        (`Export, 6939, 1299, "verified");
        (`Import, 6939, 1299, "verified");
        (`Export, 1299, 3257, "unrecorded");
        (`Import, 1299, 3257, "safelisted") ]
    in
    Alcotest.(check int) "10 hop checks" (List.length expected) (List.length report.hops);
    List.iter2
      (fun (direction, from_as, to_as, cls) (hop : Report.hop) ->
        Alcotest.(check bool)
          (Printf.sprintf "hop %d->%d direction" from_as to_as)
          true
          (hop.direction = direction && hop.from_as = from_as && hop.to_as = to_as);
        Alcotest.(check string)
          (Printf.sprintf "hop %d->%d class" from_as to_as)
          cls (Status.class_label hop.status))
      expected report.hops;
    (* the unrecorded export names the missing as-set, as in the paper *)
    let unrec =
      List.find (fun (h : Report.hop) -> Status.class_label h.status = "unrecorded") report.hops
    in
    Alcotest.(check bool) "names the missing set" true
      (List.exists
         (function
           | Report.Unrec (Status.Unrecorded_as_set name) ->
             name = "AS1299:AS-TWELVE99-CUSTOMER-V4" || name = "AS1299:AS-TWELVE99-PEER-V4"
           | _ -> false)
         unrec.items)

(* verify_rib evaluates in verdict mode over a per-aut-num rule
   index. An edit that makes AS10 name a new neighbour reaches it
   through apply_edits: the batch equals a fresh engine's. *)
let test_rule_index_follows_edits () =
  let db =
    Db.of_dumps
      [ ("TEST", "aut-num: AS10\nimport: from AS20 accept ANY\n\nroute: 192.0.2.0/24\norigin: AS1\n") ]
  in
  let engine = Engine.create ~config:{ Engine.default_config with track_deps = true } db (rels ()) in
  let routes () = [| Rz_bgp.Route.make (p "192.0.2.0/24") [ 10; 1 ] |] in
  let batch engine =
    let reports = ref [] in
    Engine.verify_rib engine (routes ()) (fun _ r -> reports := r :: !reports);
    List.rev !reports
  in
  let import_hop = function
    | [ Some (r : Report.route_report) ] ->
      List.find (fun (h : Report.hop) -> h.direction = `Import) r.hops
    | _ -> Alcotest.fail "route excluded"
  in
  Alcotest.(check bool) "AS1 undeclared before the edit" true
    ((import_hop (batch engine)).status <> Status.Verified);
  let ir = Db.ir db in
  let an = Option.get (Rz_ir.Ir.find_aut_num ir 10) in
  let rule =
    Result.get_ok
      (Rz_policy.Parser.parse_rule ~direction:`Import ~multiprotocol:false "from AS1 accept ANY")
  in
  Hashtbl.replace ir.Rz_ir.Ir.aut_nums 10 { an with imports = an.imports @ [ rule ] };
  Db.patch db [ Engine.Edit_aut_num 10 ];
  ignore (Engine.apply_edits engine ~stale_patterns:[] [ Engine.Edit_aut_num 10 ]);
  let after = batch engine in
  check_status "AS1 declared after the edit" Status.Verified (import_hop after);
  Alcotest.(check bool) "= a fresh engine" true (after = batch (Engine.create db (rels ())))

(* Decision tracing decides only whether a hop emits a record:
   verify_rib under [Trace.All] gives the untraced reports, items
   included, and one record per hop. *)
let test_tracing_keeps_verdicts () =
  let routes () =
    Array.map
      (fun (pfx, path) -> Rz_bgp.Route.make (p pfx) path)
      [| ("103.162.114.0/23", [ 3257; 1299; 6939; 133840; 56239; 141893 ]);
         ("103.162.114.0/24", [ 1299; 6939; 133840; 56239; 141893 ]);
         ("192.0.2.0/24", [ 3257; 1299; 6939 ]) |]
  in
  let batch engine =
    let reports = ref [] in
    Engine.verify_rib engine (routes ()) (fun _ r -> reports := r :: !reports);
    List.rev !reports
  in
  let untraced = batch (appendix_c_engine ()) in
  let traced, records =
    Rz_trace.Trace.with_sampling Rz_trace.Trace.All (fun () ->
        let reports = batch (appendix_c_engine ()) in
        (reports, List.length (Rz_trace.Trace.records ())))
  in
  Alcotest.(check bool) "traced reports = untraced" true (traced = untraced);
  let hops =
    List.fold_left
      (fun acc -> function
        | Some (r : Report.route_report) -> acc + List.length r.hops
        | None -> acc)
      0 untraced
  in
  Alcotest.(check int) "one record per hop" hops records

let suite =
  [ Alcotest.test_case "peering EXCEPT" `Quick test_peering_except_expression;
    Alcotest.test_case "peering OR" `Quick test_peering_or_expression;
    Alcotest.test_case "peering as-set" `Quick test_peering_as_set_expression;
    Alcotest.test_case "second rule matches" `Quick test_second_rule_matches;
    Alcotest.test_case "second peering in factor" `Quick test_second_peering_in_factor;
    Alcotest.test_case "nested filter-sets" `Quick test_nested_filter_sets;
    Alcotest.test_case "route-set ^- op" `Quick test_route_set_minus_op;
    Alcotest.test_case "v6 route-set" `Quick test_v6_route_set;
    Alcotest.test_case "afi list both families" `Quick test_afi_list_both_families;
    Alcotest.test_case "protocol prefix transparent" `Quick test_protocol_prefix_is_transparent;
    Alcotest.test_case "community action not skipped" `Quick test_community_action_is_not_skip;
    Alcotest.test_case "hierarchical set names" `Quick test_hierarchical_set_names_resolve;
    Alcotest.test_case "verified hop attrs" `Quick test_verified_hop_reports_attrs;
    Alcotest.test_case "only matching actions apply" `Quick test_unmatched_peering_actions_not_applied;
    Alcotest.test_case "Appendix C full route" `Quick test_appendix_c_route;
    Alcotest.test_case "rule index follows aut-num edits" `Quick test_rule_index_follows_edits;
    Alcotest.test_case "tracing does not change verdicts" `Quick test_tracing_keeps_verdicts ]
