(* Tests for rz_asrel: relationships, cones, clique, serial-1 format. *)
module Rel_db = Rz_asrel.Rel_db

let sample () =
  let t = Rel_db.create () in
  (*     1   2      tier1 peers
        / \ / \
       3   4  5     mids (3-4 peer)
      / \   \
     6   7   8      stubs            *)
  Rel_db.add_p2p t 1 2;
  Rel_db.add_p2c t ~provider:1 ~customer:3;
  Rel_db.add_p2c t ~provider:1 ~customer:4;
  Rel_db.add_p2c t ~provider:2 ~customer:4;
  Rel_db.add_p2c t ~provider:2 ~customer:5;
  Rel_db.add_p2p t 3 4;
  Rel_db.add_p2c t ~provider:3 ~customer:6;
  Rel_db.add_p2c t ~provider:3 ~customer:7;
  Rel_db.add_p2c t ~provider:4 ~customer:8;
  t

let test_relationship () =
  let t = sample () in
  Alcotest.(check bool) "p2c" true (Rel_db.relationship t 1 3 = Rel_db.A_provider_of_b);
  Alcotest.(check bool) "c2p" true (Rel_db.relationship t 3 1 = Rel_db.B_provider_of_a);
  Alcotest.(check bool) "peers" true (Rel_db.relationship t 3 4 = Rel_db.Peers);
  Alcotest.(check bool) "peers symmetric" true (Rel_db.relationship t 4 3 = Rel_db.Peers);
  Alcotest.(check bool) "unknown" true (Rel_db.relationship t 6 8 = Rel_db.Unknown)

let test_accessors () =
  let t = sample () in
  Alcotest.(check (list int)) "providers of 4" [ 1; 2 ] (Rel_db.providers t 4);
  Alcotest.(check (list int)) "customers of 3" [ 6; 7 ] (Rel_db.customers t 3);
  Alcotest.(check (list int)) "peers of 4" [ 3 ] (Rel_db.peers t 4);
  Alcotest.(check (list int)) "neighbors of 4" [ 1; 2; 3; 8 ] (Rel_db.neighbors t 4);
  Alcotest.(check int) "8 ases" 8 (List.length (Rel_db.ases t));
  Alcotest.(check bool) "3 is transit" true (Rel_db.is_transit t 3);
  Alcotest.(check bool) "6 is not" false (Rel_db.is_transit t 6)

let test_duplicate_edges_ignored () =
  let t = Rel_db.create () in
  Rel_db.add_p2c t ~provider:1 ~customer:2;
  Rel_db.add_p2c t ~provider:1 ~customer:2;
  Rel_db.add_p2p t 3 4;
  Rel_db.add_p2p t 4 3;
  Alcotest.(check (list int)) "one customer" [ 2 ] (Rel_db.customers t 1);
  Alcotest.(check (list int)) "one peer" [ 3 ] (Rel_db.peers t 4)

let test_customer_cone () =
  let t = sample () in
  Alcotest.(check (list int)) "cone of 3" [ 3; 6; 7 ]
    (Rel_db.Asn_set.elements (Rel_db.customer_cone t 3));
  Alcotest.(check (list int)) "cone of 1" [ 1; 3; 4; 6; 7; 8 ]
    (Rel_db.Asn_set.elements (Rel_db.customer_cone t 1));
  Alcotest.(check (list int)) "stub cone is itself" [ 6 ]
    (Rel_db.Asn_set.elements (Rel_db.customer_cone t 6));
  Alcotest.(check bool) "in cone" true (Rel_db.Asn_set.mem 8 (Rel_db.customer_cone t 1));
  Alcotest.(check bool) "not in cone" false (Rel_db.Asn_set.mem 8 (Rel_db.customer_cone t 3))

let test_cone_memo_invalidation () =
  let t = sample () in
  let before = Rel_db.Asn_set.cardinal (Rel_db.customer_cone t 3) in
  Rel_db.add_p2c t ~provider:3 ~customer:99;
  let after = Rel_db.Asn_set.cardinal (Rel_db.customer_cone t 3) in
  Alcotest.(check int) "cone grows after new edge" (before + 1) after

let test_clique () =
  let t = sample () in
  Rel_db.set_clique t [ 2; 1 ];
  Alcotest.(check (list int)) "sorted" [ 1; 2 ] (Rel_db.clique t);
  Alcotest.(check bool) "tier1" true (Rel_db.is_tier1 t 1);
  Alcotest.(check bool) "not tier1" false (Rel_db.is_tier1 t 3)

let test_serial1_roundtrip () =
  let t = sample () in
  Rel_db.set_clique t [ 1; 2 ];
  let text = Rel_db.to_string t in
  match Rel_db.of_string text with
  | Error e -> Alcotest.fail e
  | Ok t2 ->
    Alcotest.(check (list int)) "clique preserved" [ 1; 2 ] (Rel_db.clique t2);
    Alcotest.(check bool) "p2c preserved" true (Rel_db.relationship t2 1 3 = Rel_db.A_provider_of_b);
    Alcotest.(check bool) "p2p preserved" true (Rel_db.relationship t2 1 2 = Rel_db.Peers);
    Alcotest.(check int) "same AS count" (List.length (Rel_db.ases t)) (List.length (Rel_db.ases t2))

let test_serial1_parse_caida_style () =
  let text = "# inferred clique: 174 3356\n# other comment\n174|3356|0\n3356|1000|-1\n" in
  match Rel_db.of_string text with
  | Error e -> Alcotest.fail e
  | Ok t ->
    Alcotest.(check (list int)) "clique from header" [ 174; 3356 ] (Rel_db.clique t);
    Alcotest.(check bool) "p2c" true (Rel_db.relationship t 3356 1000 = Rel_db.A_provider_of_b)

let test_serial1_errors () =
  Alcotest.(check bool) "garbage rel" true (Result.is_error (Rel_db.of_string "1|2|7\n"));
  Alcotest.(check bool) "garbage line" true (Result.is_error (Rel_db.of_string "hello\n"))

let test_save_load () =
  let t = sample () in
  let path = Filename.temp_file "asrel" ".txt" in
  Rel_db.save t path;
  (match Rel_db.load path with
   | Ok t2 ->
     Alcotest.(check bool) "loaded p2p" true (Rel_db.relationship t2 1 2 = Rel_db.Peers)
   | Error e -> Alcotest.fail e);
  Sys.remove path

let suite =
  [ Alcotest.test_case "relationship" `Quick test_relationship;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "duplicate edges" `Quick test_duplicate_edges_ignored;
    Alcotest.test_case "customer cone" `Quick test_customer_cone;
    Alcotest.test_case "cone memo invalidation" `Quick test_cone_memo_invalidation;
    Alcotest.test_case "clique" `Quick test_clique;
    Alcotest.test_case "serial-1 roundtrip" `Quick test_serial1_roundtrip;
    Alcotest.test_case "serial-1 caida style" `Quick test_serial1_parse_caida_style;
    Alcotest.test_case "serial-1 errors" `Quick test_serial1_errors;
    Alcotest.test_case "save/load" `Quick test_save_load ]
