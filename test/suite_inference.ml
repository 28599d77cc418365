(* Tests for Rz_stats.Infer_rels and Rz_stats.Siblings — the paper's
   future-work analytics (relationship inference, sibling detection). *)
module Infer = Rz_stats.Infer_rels
module Siblings = Rz_stats.Siblings
module Rel_db = Rz_asrel.Rel_db

let db_of text = Rz_irr.Db.of_dumps [ ("TEST", text) ]

let test_infer_provider_customer () =
  (* AS1's view: accept ANY from AS10 and announce own routes -> provider *)
  let db =
    db_of
      "aut-num: AS1\nimport: from AS10 accept ANY\nexport: to AS10 announce AS1\n\n\
       aut-num: AS10\nimport: from AS1 accept AS1\nexport: to AS1 announce ANY\n"
  in
  let rels = Infer.infer db in
  Alcotest.(check bool) "AS10 provider of AS1" true
    (Rel_db.relationship rels 10 1 = Rel_db.A_provider_of_b)

let test_infer_one_sided () =
  (* only the customer side declared: still inferable *)
  let db = db_of "aut-num: AS1\nimport: from AS10 accept ANY\nexport: to AS10 announce AS1\n" in
  let rels = Infer.infer db in
  Alcotest.(check bool) "one-sided provider" true
    (Rel_db.relationship rels 10 1 = Rel_db.A_provider_of_b)

let test_infer_peer () =
  let db =
    db_of
      "aut-num: AS1\nimport: from AS2 accept AS2\nexport: to AS2 announce AS1\n\n\
       aut-num: AS2\nimport: from AS1 accept AS1\nexport: to AS1 announce AS2\n"
  in
  let rels = Infer.infer db in
  Alcotest.(check bool) "selective both ways = peer" true
    (Rel_db.relationship rels 1 2 = Rel_db.Peers)

let test_infer_open_policy_is_silent () =
  (* accept ANY and announce ANY carries no orientation signal *)
  let db = db_of "aut-num: AS1\nimport: from AS2 accept ANY\nexport: to AS2 announce ANY\n" in
  let rels = Infer.infer db in
  Alcotest.(check bool) "no relationship claimed" true
    (Rel_db.relationship rels 1 2 = Rel_db.Unknown)

let test_infer_conflict_falls_back_to_peer () =
  (* both claim the other is their provider: contradictory -> peer *)
  let db =
    db_of
      "aut-num: AS1\nimport: from AS2 accept ANY\nexport: to AS2 announce AS1\n\n\
       aut-num: AS2\nimport: from AS1 accept ANY\nexport: to AS1 announce AS2\n"
  in
  let rels = Infer.infer db in
  Alcotest.(check bool) "conflict -> peer" true (Rel_db.relationship rels 1 2 = Rel_db.Peers)

let test_inference_accuracy_on_synthetic_world () =
  (* end to end: infer from the generated RPSL, compare to ground truth *)
  let topo =
    Rz_topology.Gen.generate
      { Rz_topology.Gen.default_params with n_tier1 = 3; n_mid = 30; n_stub = 100 }
  in
  let world = Rz_synthirr.Generate.generate topo in
  let db = Rz_irr.Db.of_dumps world.dumps in
  let inferred = Infer.infer db in
  let acc = Infer.accuracy ~truth:topo.rels inferred in
  Alcotest.(check bool) "links inferred" true (acc.inferred > 50);
  Alcotest.(check bool) "most inferred links are real" true
    (float_of_int acc.checked /. float_of_int acc.inferred > 0.9);
  let precision = float_of_int acc.correct /. float_of_int (max 1 acc.checked) in
  Alcotest.(check bool)
    (Printf.sprintf "precision %.2f >= 0.8" precision)
    true (precision >= 0.8)

(* ---------------- siblings ---------------- *)

let test_sibling_clusters () =
  let db =
    db_of
      "aut-num: AS1\nmnt-by: MNT-ORG\n\n\
       aut-num: AS2\nmnt-by: MNT-ORG\n\n\
       aut-num: AS3\nmnt-by: MNT-OTHER\n\n\
       aut-num: AS4\nmnt-by: MNT-ORG\nmnt-by: MNT-BRIDGE\n\n\
       aut-num: AS5\nmnt-by: MNT-BRIDGE\n"
  in
  let clusters = Siblings.clusters db in
  Alcotest.(check int) "one cluster" 1 (List.length clusters);
  let c = List.hd clusters in
  (* the bridge maintainer links AS5 into the MNT-ORG family *)
  Alcotest.(check (list int)) "members" [ 1; 2; 4; 5 ] c.asns;
  Alcotest.(check bool) "maintainers recorded" true (List.mem "MNT-ORG" c.maintainers);
  Alcotest.(check bool) "loner in no cluster" false (List.mem 3 c.asns)

let test_sibling_no_clusters () =
  let db = db_of "aut-num: AS1\nmnt-by: MNT-A\n\naut-num: AS2\nmnt-by: MNT-B\n" in
  Alcotest.(check int) "no clusters" 0 (List.length (Siblings.clusters db))

let suite =
  [ Alcotest.test_case "infer provider/customer" `Quick test_infer_provider_customer;
    Alcotest.test_case "infer one-sided" `Quick test_infer_one_sided;
    Alcotest.test_case "infer peer" `Quick test_infer_peer;
    Alcotest.test_case "open policy silent" `Quick test_infer_open_policy_is_silent;
    Alcotest.test_case "conflict -> peer" `Quick test_infer_conflict_falls_back_to_peer;
    Alcotest.test_case "accuracy on synthetic world" `Quick test_inference_accuracy_on_synthetic_world;
    Alcotest.test_case "sibling clusters" `Quick test_sibling_clusters;
    Alcotest.test_case "sibling no clusters" `Quick test_sibling_no_clusters ]
