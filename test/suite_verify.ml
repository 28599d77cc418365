(* Tests for rz_verify: every verification status and all six special
   cases of Section 5.1, on hand-built mini-IRRs, plus structured-policy
   semantics and the Appendix-C walk. *)
module Db = Rz_irr.Db
module Rel_db = Rz_asrel.Rel_db
module Engine = Rz_verify.Engine
module Status = Rz_verify.Status
module Report = Rz_verify.Report

let p = Rz_net.Prefix.of_string_exn

(* Mini Internet:
     100 -- 200      Tier-1 clique (peers)
      |      |
     10 ---- 20      mids (peer with each other)
     /  \
    1    2           stubs (2 additionally has customer 3)
         |
         3                                                     *)
let rels () =
  let t = Rel_db.create () in
  Rel_db.add_p2p t 100 200;
  Rel_db.set_clique t [ 100; 200 ];
  Rel_db.add_p2c t ~provider:100 ~customer:10;
  Rel_db.add_p2c t ~provider:200 ~customer:20;
  Rel_db.add_p2p t 10 20;
  Rel_db.add_p2c t ~provider:10 ~customer:1;
  Rel_db.add_p2c t ~provider:10 ~customer:2;
  Rel_db.add_p2c t ~provider:2 ~customer:3;
  t

let engine ?config rpsl =
  Engine.create ?config (Db.of_dumps [ ("TEST", rpsl) ]) (rels ())

let check_status name expected (hop : Report.hop) =
  Alcotest.(check string) name (Status.to_string expected) (Status.to_string hop.status)

(* ---------------- Verified ---------------- *)

let test_verified_any () =
  let e = engine "aut-num: AS10\nimport: from AS1 accept ANY\n" in
  let hop =
    Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:1
      ~prefix:(p "192.0.2.0/24") ~path:[| 1 |]
  in
  check_status "accept ANY verifies" Status.Verified hop

let test_verified_asn_filter () =
  let e =
    engine "aut-num: AS10\nimport: from AS1 accept AS1\n\nroute: 192.0.2.0/24\norigin: AS1\n"
  in
  check_status "ASN filter with route object" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:1
       ~prefix:(p "192.0.2.0/24") ~path:[| 1 |])

let test_verified_as_set_filter () =
  let e =
    engine
      "aut-num: AS10\nexport: to AS100 announce AS-CONE\n\n\
       as-set: AS-CONE\nmembers: AS10, AS1, AS2\n\n\
       route: 192.0.2.0/24\norigin: AS1\n"
  in
  check_status "as-set filter" Status.Verified
    (Engine.verify_hop e ~direction:`Export ~subject:10 ~remote:100
       ~prefix:(p "192.0.2.0/24") ~path:[| 10; 1 |])

let test_verified_route_set_filter () =
  let e =
    engine
      "aut-num: AS10\nimport: from AS1 accept RS-NETS^+\n\n\
       route-set: RS-NETS\nmembers: 192.0.2.0/24\n"
  in
  check_status "route-set with op takes more-specific" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:1
       ~prefix:(p "192.0.2.128/25") ~path:[| 1 |])

let test_verified_prefix_set () =
  let e = engine "aut-num: AS10\nimport: from AS1 accept { 192.0.2.0/24^24-32 }\n" in
  check_status "inline prefix set" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:1
       ~prefix:(p "192.0.2.0/26") ~path:[| 1 |])

let test_verified_regex () =
  (* the remote is the peer AS20 so a mismatch cannot be rescued by the
     uphill safelist *)
  let e = engine "aut-num: AS10\nimport: from AS20 accept <^AS20 AS3+$>\n" in
  check_status "path regex" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20; 3; 3 |]);
  check_status "path regex rejects" Status.Unverified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20; 2 |])

let test_verified_peeras_regex () =
  let e = engine "aut-num: AS10\nimport: from AS1 accept <^PeerAS+$>\n" in
  check_status "PeerAS regex binds remote" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:1
       ~prefix:(p "192.0.2.0/24") ~path:[| 1; 1 |])

let test_verified_peeras_filter () =
  let e =
    engine "aut-num: AS10\nimport: from AS1 accept PeerAS\n\nroute: 192.0.2.0/24\norigin: AS1\n"
  in
  check_status "PeerAS filter = peer's routes" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:1
       ~prefix:(p "192.0.2.0/24") ~path:[| 1 |])

let test_verified_filter_set () =
  let e =
    engine
      "aut-num: AS10\nimport: from AS1 accept FLTR-DOC\n\n\
       filter-set: FLTR-DOC\nfilter: { 192.0.2.0/24^+ }\n"
  in
  check_status "filter-set resolves" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:1
       ~prefix:(p "192.0.2.0/24") ~path:[| 1 |])

let test_verified_peering_set () =
  let e =
    engine
      "aut-num: AS10\nimport: from PRNG-UP accept ANY\n\npeering-set: PRNG-UP\npeering: AS1\n"
  in
  check_status "peering-set resolves" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:1
       ~prefix:(p "192.0.2.0/24") ~path:[| 1 |])

let test_verified_as_any_peering () =
  let e = engine "aut-num: AS10\nimport: from AS-ANY accept ANY\n" in
  check_status "AS-ANY peering" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:999
       ~prefix:(p "192.0.2.0/24") ~path:[| 999 |])

(* ---------------- afi gating ---------------- *)

let test_afi_plain_rule_is_v4_only () =
  let e = engine "aut-num: AS10\nimport: from AS1 accept ANY\n" in
  let hop =
    Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:1
      ~prefix:(p "2001:db8::/32") ~path:[| 1 |]
  in
  Alcotest.(check bool) "plain import does not cover v6" true
    (hop.status <> Status.Verified)

let test_afi_mp_any_covers_v6 () =
  let e = engine "aut-num: AS10\nmp-import: afi any.unicast from AS1 accept ANY\n" in
  check_status "mp afi any covers v6" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:1
       ~prefix:(p "2001:db8::/32") ~path:[| 1 |])

let test_afi_specific_mismatch () =
  let e = engine "aut-num: AS10\nmp-import: afi ipv6.unicast from AS1 accept ANY\n" in
  let hop =
    Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:1
      ~prefix:(p "192.0.2.0/24") ~path:[| 1 |]
  in
  Alcotest.(check bool) "ipv6-only rule does not cover v4" true (hop.status <> Status.Verified)

(* ---------------- Skip ---------------- *)

let test_skip_community_filter () =
  let e = engine "aut-num: AS10\nimport: from AS1 accept community(65535:666)\n" in
  check_status "community filter skipped" (Status.Skipped Status.Community_filter)
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:1
       ~prefix:(p "192.0.2.0/24") ~path:[| 1 |])

let test_skip_future_work_only_in_paper_compat () =
  let rpsl = "aut-num: AS10\nimport: from AS1 accept <^AS1~+$>\n" in
  let compat = engine ~config:{ Engine.default_config with paper_compat = true } rpsl in
  check_status "paper_compat skips ~ ops" (Status.Skipped Status.Future_work_regex)
    (Engine.verify_hop compat ~direction:`Import ~subject:10 ~remote:1
       ~prefix:(p "192.0.2.0/24") ~path:[| 1; 1 |]);
  let full = engine rpsl in
  check_status "default evaluates ~ ops" Status.Verified
    (Engine.verify_hop full ~direction:`Import ~subject:10 ~remote:1
       ~prefix:(p "192.0.2.0/24") ~path:[| 1; 1 |])

(* ---------------- Unrecorded ---------------- *)

let test_unrec_no_aut_num () =
  let e = engine "aut-num: AS10\nimport: from AS1 accept ANY\n" in
  check_status "missing aut-num" (Status.Unrecorded (Status.No_aut_num 77))
    (Engine.verify_hop e ~direction:`Import ~subject:77 ~remote:1
       ~prefix:(p "192.0.2.0/24") ~path:[| 1 |])

let test_unrec_no_rules_direction () =
  let e = engine "aut-num: AS10\nimport: from AS1 accept ANY\n" in
  check_status "no export rules" (Status.Unrecorded Status.No_rules)
    (Engine.verify_hop e ~direction:`Export ~subject:10 ~remote:100
       ~prefix:(p "192.0.2.0/24") ~path:[| 10; 1 |])

let test_unrec_zero_route_as () =
  (* filter references AS2, which originates no route objects at all *)
  let e = engine "aut-num: AS10\nimport: from AS2 accept AS2\n" in
  check_status "zero-route AS" (Status.Unrecorded (Status.Zero_route_as 2))
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:2
       ~prefix:(p "192.0.2.0/24") ~path:[| 2 |])

let test_unrec_missing_sets () =
  let e = engine "aut-num: AS10\nimport: from AS1 accept AS-NOWHERE\n" in
  check_status "unknown as-set" (Status.Unrecorded (Status.Unrecorded_as_set "AS-NOWHERE"))
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:1
       ~prefix:(p "192.0.2.0/24") ~path:[| 1 |]);
  let e2 = engine "aut-num: AS10\nimport: from AS1 accept RS-NOWHERE\n" in
  check_status "unknown route-set"
    (Status.Unrecorded (Status.Unrecorded_route_set "RS-NOWHERE"))
    (Engine.verify_hop e2 ~direction:`Import ~subject:10 ~remote:1
       ~prefix:(p "192.0.2.0/24") ~path:[| 1 |]);
  let e3 = engine "aut-num: AS10\nimport: from PRNG-NOWHERE accept ANY\n" in
  check_status "unknown peering-set"
    (Status.Unrecorded (Status.Unrecorded_peering_set "PRNG-NOWHERE"))
    (Engine.verify_hop e3 ~direction:`Import ~subject:10 ~remote:1
       ~prefix:(p "192.0.2.0/24") ~path:[| 1 |]);
  let e4 = engine "aut-num: AS10\nimport: from AS1 accept FLTR-NOWHERE\n" in
  check_status "unknown filter-set"
    (Status.Unrecorded (Status.Unrecorded_filter_set "FLTR-NOWHERE"))
    (Engine.verify_hop e4 ~direction:`Import ~subject:10 ~remote:1
       ~prefix:(p "192.0.2.0/24") ~path:[| 1 |])

(* ---------------- Relaxed ---------------- *)

let test_relaxed_export_self () =
  (* Transit AS10 announces only itself uphill; route actually originated
     by its customer AS1, whose route object exists (cone coverage). *)
  let e =
    engine
      "aut-num: AS10\nexport: to AS100 announce AS10\n\n\
       route: 192.0.2.0/24\norigin: AS1\n\nroute: 198.51.100.0/24\norigin: AS10\n"
  in
  check_status "export self relaxed" (Status.Relaxed Status.Export_self)
    (Engine.verify_hop e ~direction:`Export ~subject:10 ~remote:100
       ~prefix:(p "192.0.2.0/24") ~path:[| 10; 1 |])

let test_export_self_needs_customer () =
  (* previous AS on the path is a PEER (20), not a customer: neither the
     export-self relaxation nor the uphill safelist applies — a
     peer-learned route passed to a provider is a route leak. *)
  let e =
    engine
      "aut-num: AS10\nexport: to AS100 announce AS10\n\n\
       route: 192.0.2.0/24\norigin: AS20\n\nroute: 198.51.100.0/24\norigin: AS10\n"
  in
  check_status "peer-learned route leak stays unverified" Status.Unverified
    (Engine.verify_hop e ~direction:`Export ~subject:10 ~remote:100
       ~prefix:(p "192.0.2.0/24") ~path:[| 10; 20 |])

let test_export_self_needs_cone_route_object () =
  (* Appendix C: without a cone route object for the prefix, export-self
     does not apply and the hop falls through to uphill safelisting. *)
  let e =
    engine
      "aut-num: AS10\nexport: to AS100 announce AS10\n\n\
       route: 198.51.100.0/24\norigin: AS10\n"
  in
  check_status "no cone route object -> uphill" (Status.Safelisted Status.Uphill)
    (Engine.verify_hop e ~direction:`Export ~subject:10 ~remote:100
       ~prefix:(p "192.0.2.0/24") ~path:[| 10; 1 |])

let test_relaxed_import_customer () =
  (* AS10 imports from transit customer AS2 with filter AS2; the route is
     originated deeper (AS3). AS2 must have some route object (else the
     zero-route unrecorded case fires first). *)
  let e =
    engine
      "aut-num: AS10\nimport: from AS2 accept AS2\n\nroute: 198.51.100.0/24\norigin: AS2\n"
  in
  check_status "import customer relaxed" (Status.Relaxed Status.Import_customer)
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:2
       ~prefix:(p "192.0.2.0/24") ~path:[| 2; 3 |])

let test_relaxed_missing_routes () =
  (* Filter names the origin AS1, which has route objects — but not for
     this prefix. The route arrives via peer AS20 so neither the
     import-customer relaxation nor the uphill safelist can fire first. *)
  let e =
    engine
      "aut-num: AS10\nimport: from AS20 accept AS1\n\nroute: 198.51.100.0/24\norigin: AS1\n"
  in
  check_status "missing routes relaxed" (Status.Relaxed Status.Missing_routes)
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20; 1 |])

let test_relaxed_missing_routes_as_set () =
  let e =
    engine
      "aut-num: AS10\nimport: from AS20 accept AS-CONE\n\n\
       as-set: AS-CONE\nmembers: AS1\n\nroute: 198.51.100.0/24\norigin: AS1\n"
  in
  check_status "missing routes via as-set" (Status.Relaxed Status.Missing_routes)
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20; 1 |])

(* ---------------- Safelisted ---------------- *)

let test_safelisted_only_provider () =
  (* AS2 (customer: AS3, provider: AS10) writes rules only toward AS10;
     importing from customer AS3 is safelisted. *)
  let e =
    engine
      "aut-num: AS2\nimport: from AS10 accept ANY\nexport: to AS10 announce AS2\n"
  in
  check_status "only provider policies" (Status.Safelisted Status.Only_provider_policies)
    (Engine.verify_hop e ~direction:`Import ~subject:2 ~remote:3
       ~prefix:(p "192.0.2.0/24") ~path:[| 3 |])

let test_safelisted_tier1_pair () =
  let e = engine "aut-num: AS100\nimport: from AS10 accept ANY\n" in
  check_status "tier1 pair" (Status.Safelisted Status.Tier1_pair)
    (Engine.verify_hop e ~direction:`Import ~subject:100 ~remote:200
       ~prefix:(p "192.0.2.0/24") ~path:[| 200 |])

let test_safelisted_uphill_both_directions () =
  (* AS2 (customer of AS10, provider of AS3) passes a customer-learned
     route up to AS10; both its export and AS10's import are uphill. *)
  let e = engine "aut-num: AS2\nexport: to AS99 announce AS2\n\naut-num: AS10\nimport: from AS99 accept ANY\n" in
  check_status "uphill export" (Status.Safelisted Status.Uphill)
    (Engine.verify_hop e ~direction:`Export ~subject:2 ~remote:10
       ~prefix:(p "192.0.2.0/24") ~path:[| 2; 3 |]);
  check_status "uphill import" (Status.Safelisted Status.Uphill)
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:2
       ~prefix:(p "192.0.2.0/24") ~path:[| 2; 3 |])

let test_origin_uphill_export_not_safelisted () =
  (* Appendix C: the origin's own export to its provider has no previous
     AS, so the uphill safelist does not apply and a peering mismatch
     stays BadExport. *)
  let e = engine "aut-num: AS1\nexport: to AS99 announce AS1\n" in
  check_status "origin export not safelisted" Status.Unverified
    (Engine.verify_hop e ~direction:`Export ~subject:1 ~remote:10
       ~prefix:(p "192.0.2.0/24") ~path:[| 1 |])

(* ---------------- Unverified ---------------- *)

let test_unverified_peering_mismatch_items () =
  (* AS20 imports from peer AS10 but wrote rules for other ASes; the
     extra non-provider reference (AS300) keeps the only-provider
     safelist from firing *)
  let e = engine "aut-num: AS20\nimport: from AS200 accept ANY\nimport: from AS300 accept ANY\n" in
  let hop =
    Engine.explain_hop e ~direction:`Import ~subject:20 ~remote:10
      ~prefix:(p "192.0.2.0/24") ~path:[| 10 |]
  in
  check_status "peering mismatch" Status.Unverified hop;
  Alcotest.(check bool) "items name the referenced remote" true
    (List.mem (Report.Match_remote_as_num 200) hop.items)

let test_unverified_filter_mismatch_items () =
  (* peering matches but the ASN filter rejects; AS1 has other route
     objects and is not the origin (origin is 99), so no relaxation *)
  let e =
    engine
      "aut-num: AS20\nimport: from AS10 accept AS1\n\nroute: 198.51.100.0/24\norigin: AS1\n"
  in
  let hop =
    Engine.explain_hop e ~direction:`Import ~subject:20 ~remote:10
      ~prefix:(p "192.0.2.0/24") ~path:[| 10; 99 |]
  in
  check_status "filter mismatch" Status.Unverified hop;
  Alcotest.(check bool) "filter diagnostic present" true
    (List.exists
       (function Report.Match_filter_as_num (1, _) -> true | _ -> false)
       hop.items)

(* ---------------- structured policies ---------------- *)

let test_refine_requires_both () =
  let rpsl =
    "aut-num: AS10\nmp-import: afi any.unicast from AS20 accept ANY REFINE afi any from AS20 accept <^AS20 AS3+$>\n"
  in
  let e = engine rpsl in
  check_status "matches both levels" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20; 3 |]);
  check_status "fails refine level" Status.Unverified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20; 2 |])

let test_refine_afi_scoped () =
  (* The refine applies to ipv4 only; v6 routes are governed by the outer
     term alone (the paper's AS14595 semantics). *)
  let rpsl =
    "aut-num: AS10\nmp-import: afi any.unicast from AS20 accept ANY REFINE afi ipv4.unicast from AS20 accept <^AS20 AS3+$>\n"
  in
  let e = engine rpsl in
  check_status "v6 bypasses ipv4 refine" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "2001:db8::/32") ~path:[| 20; 2 |]);
  check_status "v4 must satisfy refine" Status.Unverified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20; 2 |])

let test_except_rhs_wins () =
  let rpsl =
    "aut-num: AS10\nimport: from AS20 accept { 192.0.2.0/24 } EXCEPT from AS20 accept { 198.51.100.0/24 }\n"
  in
  let e = engine rpsl in
  check_status "lhs route accepted" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20 |]);
  check_status "rhs route accepted via exception" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "198.51.100.0/24") ~path:[| 20 |]);
  check_status "other routes rejected" Status.Unverified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "203.0.113.0/24") ~path:[| 20 |])

let test_not_filter () =
  let e = engine "aut-num: AS10\nimport: from AS20 accept ANY AND NOT { 192.0.2.0/24^+ }\n" in
  check_status "NOT rejects listed" Status.Unverified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "192.0.2.0/24") ~path:[| 20 |]);
  check_status "NOT passes others" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "198.51.100.0/24") ~path:[| 20 |])

let test_fltr_martian () =
  let e = engine "aut-num: AS10\nimport: from AS20 accept NOT fltr-martian\n" in
  check_status "public prefix passes" Status.Verified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "198.51.0.0/16") ~path:[| 20 |]);
  check_status "martian rejected" Status.Unverified
    (Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
       ~prefix:(p "10.1.0.0/16") ~path:[| 20 |])

(* ---------------- whole routes ---------------- *)

let test_verify_route_walk () =
  let rpsl =
    "aut-num: AS1\nexport: to AS10 announce AS1\nimport: from AS10 accept ANY\n\n\
     aut-num: AS10\nimport: from AS1 accept AS1\nexport: to AS100 announce AS-CONE\n\n\
     aut-num: AS100\nimport: from AS10 accept AS-CONE\n\n\
     as-set: AS-CONE\nmembers: AS10, AS1, AS2\n\n\
     route: 192.0.2.0/24\norigin: AS1\n"
  in
  let e = engine rpsl in
  let route = Rz_bgp.Route.make (p "192.0.2.0/24") [ 100; 10; 1 ] in
  match Engine.verify_route e route with
  | None -> Alcotest.fail "route excluded unexpectedly"
  | Some report ->
    Alcotest.(check int) "2 links x 2 checks" 4 (List.length report.hops);
    (* origin-side export first *)
    let first = List.hd report.hops in
    Alcotest.(check bool) "origin export first" true
      (first.direction = `Export && first.from_as = 1 && first.to_as = 10);
    List.iter
      (fun (hop : Report.hop) ->
        check_status (Report.hop_to_string hop) Status.Verified hop)
      report.hops

let test_verify_route_exclusions () =
  let e = engine "aut-num: AS1\n" in
  Alcotest.(check bool) "single AS excluded" true
    (Engine.verify_route e (Rz_bgp.Route.make (p "192.0.2.0/24") [ 1 ]) = None);
  Alcotest.(check bool) "prepended single AS excluded" true
    (Engine.verify_route e (Rz_bgp.Route.make (p "192.0.2.0/24") [ 1; 1; 1 ]) = None);
  (match Rz_bgp.Route.of_line "192.0.2.0/24|1 {2,3} 4" with
   | Ok r -> Alcotest.(check bool) "AS_SET excluded" true (Engine.verify_route e r = None)
   | Error e -> Alcotest.fail e)

let test_verify_route_dedups_prepending () =
  let e = engine "aut-num: AS10\nimport: from AS1 accept ANY\n" in
  let route = Rz_bgp.Route.make (p "192.0.2.0/24") [ 10; 10; 10; 1; 1 ] in
  match Engine.verify_route e route with
  | None -> Alcotest.fail "excluded"
  | Some report -> Alcotest.(check int) "one link after dedup" 2 (List.length report.hops)

(* ---------------- report formatting ---------------- *)

let test_report_formatting () =
  let e = engine "aut-num: AS20\nimport: from AS200 accept ANY\nimport: from AS300 accept ANY\n" in
  let hop =
    Engine.explain_hop e ~direction:`Import ~subject:20 ~remote:10
      ~prefix:(p "192.0.2.0/24") ~path:[| 10 |]
  in
  let text = Report.hop_to_string hop in
  Alcotest.(check bool) "BadImport prefix" true
    (String.length text >= 9 && String.sub text 0 9 = "BadImport");
  Alcotest.(check bool) "mentions remote" true
    (Rz_util.Strings.split_on_string ~sep:"MatchRemoteAsNum(200)" text |> List.length > 1)

let test_report_meh_naming () =
  let e = engine "aut-num: AS100\nimport: from AS10 accept ANY\n" in
  let hop =
    Engine.explain_hop e ~direction:`Import ~subject:100 ~remote:200
      ~prefix:(p "192.0.2.0/24") ~path:[| 200 |]
  in
  let text = Report.hop_to_string hop in
  Alcotest.(check bool) "MehImport + SpecTier1Pair" true
    (String.sub text 0 9 = "MehImport"
     && Rz_util.Strings.split_on_string ~sep:"SpecTier1Pair" text |> List.length > 1)

(* ---------------- hop-verdict memoization ---------------- *)

(* Subjects whose policies read the AS path (Path_regex anywhere in a
   reachable filter) must bypass the hop memo entirely — neither hits
   nor misses — while path-free subjects in the same engine memoize
   normally and replay the identical verdict on a hit. *)
let test_memo_bypass_path_regex () =
  let module Obs = Rz_obs.Obs in
  let e =
    engine
      "aut-num: AS10\nimport: from AS20 accept <^AS20 AS3+$>\n\n\
       aut-num: AS20\nimport: from AS10 accept ANY\n"
  in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
  @@ fun () ->
  let hits = Obs.Counter.make "verify.memo_hits" in
  let misses = Obs.Counter.make "verify.memo_misses" in
  let regex_hop () =
    Engine.verify_hop e ~direction:`Import ~subject:10 ~remote:20
      ~prefix:(p "192.0.2.0/24") ~path:[| 20; 3 |]
  in
  check_status "path-regex hop verifies" Status.Verified (regex_hop ());
  ignore (regex_hop ());
  Alcotest.(check int) "path-dependent subject bypasses the memo" 0
    (Obs.Counter.get hits + Obs.Counter.get misses);
  let plain_hop () =
    Engine.verify_hop e ~direction:`Import ~subject:20 ~remote:10
      ~prefix:(p "192.0.2.0/24") ~path:[| 10; 3 |]
  in
  let a = plain_hop () in
  Alcotest.(check int) "first plain hop is a memo miss" 1 (Obs.Counter.get misses);
  let b = plain_hop () in
  Alcotest.(check int) "second plain hop is a memo hit" 1 (Obs.Counter.get hits);
  Alcotest.(check string) "hit replays the identical verdict"
    (Status.to_string a.status) (Status.to_string b.status)

let suite =
  [ Alcotest.test_case "verified: ANY" `Quick test_verified_any;
    Alcotest.test_case "verified: ASN filter" `Quick test_verified_asn_filter;
    Alcotest.test_case "verified: as-set filter" `Quick test_verified_as_set_filter;
    Alcotest.test_case "verified: route-set filter" `Quick test_verified_route_set_filter;
    Alcotest.test_case "verified: prefix set" `Quick test_verified_prefix_set;
    Alcotest.test_case "verified: regex" `Quick test_verified_regex;
    Alcotest.test_case "verified: PeerAS regex" `Quick test_verified_peeras_regex;
    Alcotest.test_case "verified: PeerAS filter" `Quick test_verified_peeras_filter;
    Alcotest.test_case "verified: filter-set" `Quick test_verified_filter_set;
    Alcotest.test_case "verified: peering-set" `Quick test_verified_peering_set;
    Alcotest.test_case "verified: AS-ANY peering" `Quick test_verified_as_any_peering;
    Alcotest.test_case "afi: plain rule v4-only" `Quick test_afi_plain_rule_is_v4_only;
    Alcotest.test_case "afi: mp any covers v6" `Quick test_afi_mp_any_covers_v6;
    Alcotest.test_case "afi: specific mismatch" `Quick test_afi_specific_mismatch;
    Alcotest.test_case "skip: community" `Quick test_skip_community_filter;
    Alcotest.test_case "skip: future-work regex" `Quick test_skip_future_work_only_in_paper_compat;
    Alcotest.test_case "unrecorded: no aut-num" `Quick test_unrec_no_aut_num;
    Alcotest.test_case "unrecorded: no rules" `Quick test_unrec_no_rules_direction;
    Alcotest.test_case "unrecorded: zero-route AS" `Quick test_unrec_zero_route_as;
    Alcotest.test_case "unrecorded: missing sets" `Quick test_unrec_missing_sets;
    Alcotest.test_case "relaxed: export self" `Quick test_relaxed_export_self;
    Alcotest.test_case "export self needs customer" `Quick test_export_self_needs_customer;
    Alcotest.test_case "export self needs cone route" `Quick test_export_self_needs_cone_route_object;
    Alcotest.test_case "relaxed: import customer" `Quick test_relaxed_import_customer;
    Alcotest.test_case "relaxed: missing routes" `Quick test_relaxed_missing_routes;
    Alcotest.test_case "relaxed: missing routes as-set" `Quick test_relaxed_missing_routes_as_set;
    Alcotest.test_case "safelisted: only provider" `Quick test_safelisted_only_provider;
    Alcotest.test_case "safelisted: tier1 pair" `Quick test_safelisted_tier1_pair;
    Alcotest.test_case "safelisted: uphill" `Quick test_safelisted_uphill_both_directions;
    Alcotest.test_case "origin uphill export not safelisted" `Quick test_origin_uphill_export_not_safelisted;
    Alcotest.test_case "unverified: peering items" `Quick test_unverified_peering_mismatch_items;
    Alcotest.test_case "unverified: filter items" `Quick test_unverified_filter_mismatch_items;
    Alcotest.test_case "refine requires both" `Quick test_refine_requires_both;
    Alcotest.test_case "refine afi scoped" `Quick test_refine_afi_scoped;
    Alcotest.test_case "except rhs wins" `Quick test_except_rhs_wins;
    Alcotest.test_case "NOT filter" `Quick test_not_filter;
    Alcotest.test_case "fltr-martian" `Quick test_fltr_martian;
    Alcotest.test_case "verify_route walk" `Quick test_verify_route_walk;
    Alcotest.test_case "verify_route exclusions" `Quick test_verify_route_exclusions;
    Alcotest.test_case "verify_route dedups prepending" `Quick test_verify_route_dedups_prepending;
    Alcotest.test_case "report formatting" `Quick test_report_formatting;
    Alcotest.test_case "report Meh naming" `Quick test_report_meh_naming;
    Alcotest.test_case "memo bypass for path regex" `Quick test_memo_bypass_path_regex ]
