(* Tests for rz_lint: each check fires on a crafted fixture and stays
   silent on clean input. *)
module Linter = Rz_lint.Linter
module Rel_db = Rz_asrel.Rel_db

let db_of text = Rz_irr.Db.of_dumps [ ("TEST", text) ]

let has check diags = List.exists (fun (d : Linter.diagnostic) -> d.check = check) diags
let has_for check obj diags =
  List.exists (fun (d : Linter.diagnostic) -> d.check = check && d.obj = obj) diags

let test_clean_input_is_quiet () =
  let db =
    db_of
      "aut-num: AS1\nimport: from AS2 accept AS-CONE\nexport: to AS2 announce AS1\n\n\
       as-set: AS-CONE\nmembers: AS2, AS3\n\n\
       route: 192.0.2.0/24\norigin: AS1\n\nroute: 198.51.100.0/24\norigin: AS2\n"
  in
  let diags = Linter.lint db in
  Alcotest.(check (list string)) "only unreferenced-set style suggestions"
    []
    (List.filter_map
       (fun (d : Linter.diagnostic) ->
         if d.severity = Linter.Error then Some (Linter.diagnostic_to_string d) else None)
       diags)

let test_empty_and_singleton_sets () =
  let db = db_of "as-set: AS-EMPTY\n\nas-set: AS-ONE\nmembers: AS5\n" in
  let diags = Linter.lint db in
  Alcotest.(check bool) "empty" true (has_for Linter.Empty_set "AS-EMPTY" diags);
  Alcotest.(check bool) "singleton" true (has_for Linter.Singleton_set "AS-ONE" diags);
  Alcotest.(check bool) "empty is not singleton" false
    (has_for Linter.Singleton_set "AS-EMPTY" diags)

let test_loop_and_depth () =
  let db =
    db_of
      "as-set: AS-A\nmembers: AS-B\n\nas-set: AS-B\nmembers: AS-A\n\n\
       as-set: AS-D1\nmembers: AS-D2\n\nas-set: AS-D2\nmembers: AS-D3\n\n\
       as-set: AS-D3\nmembers: AS-D4\n\nas-set: AS-D4\nmembers: AS-D5\n\n\
       as-set: AS-D5\nmembers: AS1\n"
  in
  let diags = Linter.lint db in
  Alcotest.(check bool) "loop flagged" true (has_for Linter.Set_loop "AS-A" diags);
  Alcotest.(check bool) "deep flagged" true (has_for Linter.Deep_set "AS-D1" diags);
  Alcotest.(check bool) "shallow not flagged" false (has_for Linter.Deep_set "AS-D5" diags)

let test_reserved_and_invalid_names () =
  let db = db_of "as-set: AS-X\nmembers: ANY\n\nas-set: NOTASET\nmembers: AS1\n" in
  let diags = Linter.lint db in
  Alcotest.(check bool) "reserved member" true (has Linter.Reserved_word_member diags);
  Alcotest.(check bool) "invalid name" true (has_for Linter.Invalid_set_name "NOTASET" diags)

let test_unknown_members () =
  let db =
    db_of
      "as-set: AS-X\nmembers: AS1, AS-MISSING\n\n\
       aut-num: AS9\nimport: from AS1 accept AS-NOWHERE\nexport: to AS1 announce RS-NOWHERE\n"
  in
  let diags = Linter.lint db in
  Alcotest.(check bool) "unknown set member" true (has_for Linter.Unknown_member "AS-X" diags);
  Alcotest.(check bool) "unknown filter as-set" true (has_for Linter.Unknown_member "AS9" diags)

let test_zero_rules_and_direction () =
  let db = db_of "aut-num: AS1\n\naut-num: AS2\nimport: from AS1 accept ANY\n" in
  let diags = Linter.lint db in
  Alcotest.(check bool) "zero rules" true (has_for Linter.Zero_rules "AS1" diags);
  Alcotest.(check bool) "missing exports" true (has_for Linter.Missing_direction "AS2" diags)

let test_filter_without_routes_and_route_set_hint () =
  let db =
    db_of
      "aut-num: AS1\nimport: from AS2 accept AS2\nimport: from AS3 accept AS3\n\
       export: to AS2 announce AS1\n\n\
       route: 192.0.2.0/24\norigin: AS3\n\nroute: 203.0.113.0/24\norigin: AS1\n"
  in
  let diags = Linter.lint db in
  (* AS2 has no route objects; AS3 does *)
  Alcotest.(check bool) "zero-route filter" true (has Linter.Filter_without_routes diags);
  Alcotest.(check bool) "route-set recommendation" true
    (has Linter.Asn_filter_could_be_route_set diags)

let test_private_asn_leak () =
  let db = db_of "aut-num: AS1\nimport: from AS64512 accept ANY\nexport: to AS64512 announce AS1\n" in
  Alcotest.(check bool) "private asn" true (has Linter.Private_asn_leak (Linter.lint db))

let test_unreferenced_sets () =
  let db =
    db_of
      "aut-num: AS1\nimport: from AS2 accept AS-USED\nexport: to AS2 announce AS1\n\n\
       as-set: AS-USED\nmembers: AS2\n\nas-set: AS-ORPHAN\nmembers: AS3\n\n\
       route: 192.0.2.0/24\norigin: AS1\n\nroute: 198.51.100.0/24\norigin: AS2\n"
  in
  let diags = Linter.lint db in
  Alcotest.(check bool) "orphan flagged" true (has_for Linter.Unreferenced_set "AS-ORPHAN" diags);
  Alcotest.(check bool) "used not flagged" false (has_for Linter.Unreferenced_set "AS-USED" diags)

(* A set named only inside an AS-path regex is referenced: the linter and
   Table 2 read the same references. *)
let test_regex_named_set_is_referenced () =
  let text =
    "aut-num: AS1\nimport: from AS2 accept <AS-FOO>\nimport: from AS3 accept <^[^AS-BAR]+$>\n\
     export: to AS2 announce AS1\n\n\
     as-set: AS-FOO\nmembers: AS2\n\nas-set: AS-BAR\nmembers: AS3\n"
  in
  let db = db_of text in
  let diags = Linter.lint db in
  List.iter
    (fun set ->
      Alcotest.(check bool) (set ^ " not flagged") false
        (has_for Linter.Unreferenced_set set diags))
    [ "AS-FOO"; "AS-BAR" ];
  let usage = Rz_stats.Usage.compute ~dumps:[ ("TEST", text) ] db in
  Alcotest.(check int) "Table 2 counts both" 2 usage.table2.ref_filter_as_set

(* A set that a rule reads only through a filter-set or a peering-set is
   referenced too, and a peering-set's ASNs are declared neighbors: the
   linter reads through the sets a rule names, and through filter-sets
   that name filter-sets, cycles included. *)
let test_set_read_through_named_sets () =
  let db =
    db_of
      "aut-num: AS1\nimport: from AS2 accept FLTR-X\nimport: from PRNG-X accept ANY\n\
       import: from PRNG-Y accept ANY\nexport: to AS2 announce AS1\n\n\
       filter-set: FLTR-X\nfilter: AS-FOO OR FLTR-Y\n\n\
       filter-set: FLTR-Y\nfilter: RS-BAR OR FLTR-X\n\n\
       peering-set: PRNG-X\npeering: AS-PEERS\n\npeering-set: PRNG-Y\npeering: AS3\n\n\
       as-set: AS-FOO\nmembers: AS2\n\nas-set: AS-PEERS\nmembers: AS3\n\n\
       route-set: RS-BAR\nmembers: 192.0.2.0/24\n\n\
       as-set: AS-ORPHAN\nmembers: AS4\n"
  in
  let rels = Rel_db.create () in
  Rel_db.add_p2p rels 1 3;
  let diags = Linter.lint ~rels db in
  List.iter
    (fun set ->
      Alcotest.(check bool) (set ^ " not flagged") false
        (has_for Linter.Unreferenced_set set diags))
    [ "AS-FOO"; "RS-BAR"; "AS-PEERS" ];
  Alcotest.(check bool) "orphan flagged" true (has_for Linter.Unreferenced_set "AS-ORPHAN" diags);
  Alcotest.(check bool) "AS3 declared through PRNG-Y" false
    (has_for Linter.Undeclared_neighbor "AS1" diags)

let rels_fixture () =
  let rels = Rel_db.create () in
  Rel_db.add_p2c rels ~provider:10 ~customer:2;
  Rel_db.add_p2c rels ~provider:2 ~customer:3;
  Rel_db.add_p2c rels ~provider:100 ~customer:10;
  Rel_db.add_p2p rels 10 20;
  rels

let test_export_self_misuse () =
  (* AS10 is transit (customer AS2) and announces only itself *)
  let db =
    db_of "aut-num: AS10\nexport: to AS100 announce AS10\nimport: from AS100 accept ANY\n"
  in
  let diags = Linter.lint ~rels:(rels_fixture ()) db in
  Alcotest.(check bool) "export self" true (has_for Linter.Export_self_misuse "AS10" diags)

let test_import_customer_misuse () =
  (* AS10 imports from transit customer AS2 with filter AS2 *)
  let db =
    db_of "aut-num: AS10\nimport: from AS2 accept AS2\nexport: to AS2 announce ANY\n"
  in
  let diags = Linter.lint ~rels:(rels_fixture ()) db in
  Alcotest.(check bool) "import customer" true
    (has_for Linter.Import_customer_misuse "AS10" diags)

let test_undeclared_neighbor () =
  (* AS10 writes rules but none for its peer AS20 *)
  let db =
    db_of "aut-num: AS10\nimport: from AS100 accept ANY\nexport: to AS100 announce AS10\n"
  in
  let diags = Linter.lint ~rels:(rels_fixture ()) db in
  Alcotest.(check bool) "undeclared neighbor" true (has Linter.Undeclared_neighbor diags);
  (* an AS-ANY rule suppresses the check *)
  let db2 =
    db_of "aut-num: AS10\nimport: from AS-ANY accept ANY\nexport: to AS-ANY announce ANY\n"
  in
  Alcotest.(check bool) "AS-ANY suppresses" false
    (has Linter.Undeclared_neighbor (Linter.lint ~rels:(rels_fixture ()) db2))

let test_lint_object_scoped () =
  let db = db_of "as-set: AS-EMPTY\n\nas-set: AS-ONE\nmembers: AS5\n" in
  let diags = Linter.lint_object db ~cls:"as-set" ~name:"AS-EMPTY" in
  Alcotest.(check bool) "scoped to object" true
    (List.for_all (fun (d : Linter.diagnostic) -> d.obj = "AS-EMPTY") diags);
  Alcotest.(check bool) "finds the problem" true (has Linter.Empty_set diags)

let test_severity_ordering () =
  let db =
    db_of "as-set: AS-X\nmembers: ANY\n\nas-set: AS-ONE\nmembers: AS5\n"
  in
  match Linter.lint db with
  | [] -> Alcotest.fail "expected diagnostics"
  | first :: _ ->
    Alcotest.(check bool) "errors first" true (first.severity = Linter.Error)

let test_dangling_maintainer () =
  (* only flagged when the dumps contain mntner objects at all *)
  let without_mntners = db_of "aut-num: AS1\nmnt-by: MNT-GONE\n" in
  Alcotest.(check bool) "silent without mntner objects" false
    (has Linter.Dangling_maintainer (Linter.lint without_mntners));
  let with_mntners =
    db_of
      "aut-num: AS1\nmnt-by: MNT-GONE\n\naut-num: AS2\nmnt-by: MNT-OK\n\nmntner: MNT-OK\nauth: PGPKEY-1\n"
  in
  let diags = Linter.lint with_mntners in
  Alcotest.(check bool) "dangling flagged" true (has_for Linter.Dangling_maintainer "AS1" diags);
  Alcotest.(check bool) "valid not flagged" false
    (has_for Linter.Dangling_maintainer "AS2" diags)

let test_synthetic_world_lints () =
  (* the generated world's injected anomalies surface as diagnostics *)
  let topo =
    Rz_topology.Gen.generate
      { Rz_topology.Gen.default_params with n_tier1 = 3; n_mid = 20; n_stub = 60 }
  in
  let world = Rz_synthirr.Generate.generate topo in
  let db = Rz_irr.Db.of_dumps world.dumps in
  let diags = Linter.lint ~rels:topo.rels db in
  Alcotest.(check bool) "finds empty sets" true (has Linter.Empty_set diags);
  Alcotest.(check bool) "finds loops" true (has Linter.Set_loop diags);
  Alcotest.(check bool) "finds reserved members" true (has Linter.Reserved_word_member diags);
  Alcotest.(check bool) "finds export-self" true (has Linter.Export_self_misuse diags);
  Alcotest.(check bool) "finds undeclared neighbors" true (has Linter.Undeclared_neighbor diags)

(* ---------------- rewrite suggestions ---------------- *)

let test_rewrite_export_self () =
  let db =
    db_of
      "aut-num: AS10\nexport: to AS100 announce AS10\nimport: from AS100 accept ANY\n\n\
       as-set: AS10:AS-CUST\nmembers: AS10, AS2\n"
  in
  match Rz_lint.Rewrite.suggest ~rels:(rels_fixture ()) db 10 with
  | Some s ->
    Alcotest.(check int) "one change" 1 (List.length s.changes);
    let change = List.hd s.changes in
    Alcotest.(check bool) "replaces with cone set" true
      (Rz_util.Strings.split_on_string ~sep:"AS10:AS-CUST" change.after |> List.length > 1);
    Alcotest.(check bool) "rewritten object mentions the set" true
      (Rz_util.Strings.split_on_string ~sep:"AS10:AS-CUST" s.rewritten |> List.length > 1);
    (* the rewritten object still parses *)
    let reparsed = Rz_rpsl.Reader.parse_string s.rewritten in
    Alcotest.(check int) "reparses" 1 (List.length reparsed.objects);
    Alcotest.(check int) "no reader errors" 0 (List.length reparsed.errors)
  | None -> Alcotest.fail "expected a suggestion"

let test_rewrite_import_customer () =
  let db =
    db_of
      "aut-num: AS10\nimport: from AS2 accept AS2\nexport: to AS2 announce ANY\n\n\
       route-set: AS2:RS-ROUTES\nmembers: 192.0.2.0/24\n"
  in
  match Rz_lint.Rewrite.suggest ~rels:(rels_fixture ()) db 10 with
  | Some s ->
    let change = List.hd s.changes in
    Alcotest.(check bool) "uses the customer's route-set" true
      (Rz_util.Strings.split_on_string ~sep:"AS2:RS-ROUTES" change.after |> List.length > 1)
  | None -> Alcotest.fail "expected a suggestion"

let test_rewrite_nothing_to_do () =
  (* correct policies produce no suggestion *)
  let db =
    db_of
      "aut-num: AS10\nexport: to AS100 announce AS10:AS-CUST\nimport: from AS100 accept ANY\n\n\
       as-set: AS10:AS-CUST\nmembers: AS10, AS2\n"
  in
  Alcotest.(check bool) "no changes suggested" true
    (Rz_lint.Rewrite.suggest ~rels:(rels_fixture ()) db 10 = None);
  Alcotest.(check bool) "unknown AS" true
    (Rz_lint.Rewrite.suggest ~rels:(rels_fixture ()) db 999 = None)

let test_rewrite_stub_export_self_kept () =
  (* a stub announcing itself is CORRECT RPSL; no rewrite *)
  let db = db_of "aut-num: AS3\nexport: to AS2 announce AS3\nimport: from AS2 accept ANY\n" in
  Alcotest.(check bool) "stub untouched" true
    (Rz_lint.Rewrite.suggest ~rels:(rels_fixture ()) db 3 = None)

let suite =
  [ Alcotest.test_case "clean input quiet" `Quick test_clean_input_is_quiet;
    Alcotest.test_case "empty / singleton" `Quick test_empty_and_singleton_sets;
    Alcotest.test_case "loop / depth" `Quick test_loop_and_depth;
    Alcotest.test_case "reserved / invalid names" `Quick test_reserved_and_invalid_names;
    Alcotest.test_case "unknown members" `Quick test_unknown_members;
    Alcotest.test_case "zero rules / direction" `Quick test_zero_rules_and_direction;
    Alcotest.test_case "filter routes / route-set hint" `Quick test_filter_without_routes_and_route_set_hint;
    Alcotest.test_case "private asn" `Quick test_private_asn_leak;
    Alcotest.test_case "unreferenced sets" `Quick test_unreferenced_sets;
    Alcotest.test_case "set named in a path regex" `Quick test_regex_named_set_is_referenced;
    Alcotest.test_case "export-self misuse" `Quick test_export_self_misuse;
    Alcotest.test_case "import-customer misuse" `Quick test_import_customer_misuse;
    Alcotest.test_case "undeclared neighbor" `Quick test_undeclared_neighbor;
    Alcotest.test_case "lint_object scoped" `Quick test_lint_object_scoped;
    Alcotest.test_case "severity ordering" `Quick test_severity_ordering;
    Alcotest.test_case "dangling maintainer" `Quick test_dangling_maintainer;
    Alcotest.test_case "synthetic world lints" `Quick test_synthetic_world_lints;
    Alcotest.test_case "rewrite export-self" `Quick test_rewrite_export_self;
    Alcotest.test_case "rewrite import-customer" `Quick test_rewrite_import_customer;
    Alcotest.test_case "rewrite nothing to do" `Quick test_rewrite_nothing_to_do;
    Alcotest.test_case "rewrite keeps stub self" `Quick test_rewrite_stub_export_self_kept;
    Alcotest.test_case "set read through named sets" `Quick test_set_read_through_named_sets ]
