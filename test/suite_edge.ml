(* Edge-case sweep across modules: inputs the main suites don't cover. *)
module Db = Rz_irr.Db

let p = Rz_net.Prefix.of_string_exn
let db_of text = Db.of_dumps [ ("TEST", text) ]

(* ---------------- net edges ---------------- *)

let test_default_routes_in_trie () =
  let trie = Rz_net.Prefix_trie.create () in
  Rz_net.Prefix_trie.add trie (p "0.0.0.0/0") 1;
  Rz_net.Prefix_trie.add trie (p "::/0") 2;
  Alcotest.(check (list int)) "v4 default covers everything" [ 1 ]
    (List.map snd (Rz_net.Prefix_trie.covering trie (p "203.0.113.0/24")));
  Alcotest.(check (list int)) "v6 default covers v6" [ 2 ]
    (List.map snd (Rz_net.Prefix_trie.covering trie (p "2001:db8::/32")))

let test_prefix_host_routes () =
  Alcotest.(check bool) "/32 contains itself" true
    (Rz_net.Prefix.contains (p "192.0.2.1/32") (p "192.0.2.1/32"));
  Alcotest.(check bool) "/128 parse/print" true
    (Rz_net.Prefix.to_string (p "2001:db8::1/128") = "2001:db8::1/128")

let test_asn_asdot_roundtrip () =
  let big = Rz_net.Asn.of_string_exn "4.2" in
  Alcotest.(check int) "asdot value" ((4 lsl 16) lor 2) big

let test_range_op_full_lengths () =
  (* /0 with ^+ admits the entire family *)
  Alcotest.(check bool) "0/0^+ admits /32" true
    (Rz_net.Range_op.matches Rz_net.Range_op.Plus ~declared:(p "0.0.0.0/0")
       ~observed:(p "192.0.2.1/32"));
  Alcotest.(check bool) "0/0^0-24 rejects /25" false
    (Rz_net.Range_op.matches (Rz_net.Range_op.Range (0, 24)) ~declared:(p "0.0.0.0/0")
       ~observed:(p "192.0.2.0/25"))

(* ---------------- policy edges ---------------- *)

let test_case_insensitive_keywords () =
  match
    Rz_policy.Parser.parse_rule ~direction:`Import ~multiprotocol:false
      "FROM AS1 ACTION PREF=10; ACCEPT ANY"
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_whitespace_noise () =
  match
    Rz_policy.Parser.parse_rule ~direction:`Import ~multiprotocol:false
      "   from\n  AS1   accept\n\n ANY  "
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_filter_deep_nesting () =
  match
    Rz_policy.Parser.parse_filter "((((AS1 OR AS2) AND NOT AS3) OR {10.0.0.0/8^+}))"
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_empty_braced_term_rejected () =
  Alcotest.(check bool) "empty braces" true
    (Result.is_error
       (Rz_policy.Parser.parse_rule ~direction:`Import ~multiprotocol:false "{ }"))

(* ---------------- verify edges ---------------- *)

let test_verify_default_route_filter () =
  (* the AS14595 pattern: reject defaults *)
  let rels = Rz_asrel.Rel_db.create () in
  let engine =
    Rz_verify.Engine.create
      (db_of "aut-num: AS10\nmp-import: afi any.unicast from AS1 accept ANY AND NOT {0.0.0.0/0, ::/0}\n")
      rels
  in
  let ok =
    Rz_verify.Engine.verify_hop engine ~direction:`Import ~subject:10 ~remote:1
      ~prefix:(p "192.0.2.0/24") ~path:[| 1 |]
  in
  Alcotest.(check string) "regular prefix verifies" "verified"
    (Rz_verify.Status.class_label ok.status);
  let default_v4 =
    Rz_verify.Engine.verify_hop engine ~direction:`Import ~subject:10 ~remote:1
      ~prefix:(p "0.0.0.0/0") ~path:[| 1 |]
  in
  Alcotest.(check bool) "default rejected" true
    (default_v4.status <> Rz_verify.Status.Verified);
  let default_v6 =
    Rz_verify.Engine.verify_hop engine ~direction:`Import ~subject:10 ~remote:1
      ~prefix:(p "::/0") ~path:[| 1 |]
  in
  Alcotest.(check bool) "v6 default rejected" true
    (default_v6.status <> Rz_verify.Status.Verified)

let test_verify_very_long_path () =
  let rels = Rz_asrel.Rel_db.create () in
  let engine = Rz_verify.Engine.create (db_of "aut-num: AS10\nimport: from AS1 accept <.* AS99$>\n") rels in
  let path = Array.init 40 (fun i -> if i = 39 then 99 else i + 1) in
  let hop =
    Rz_verify.Engine.verify_hop engine ~direction:`Import ~subject:10 ~remote:1
      ~prefix:(p "192.0.2.0/24") ~path
  in
  Alcotest.(check string) "long path regex verifies" "verified"
    (Rz_verify.Status.class_label hop.status)

let test_verify_route_two_hop_loop_path () =
  (* malformed path with a repeated AS (loop): engine must not crash and
     reports hops for each adjacency *)
  let rels = Rz_asrel.Rel_db.create () in
  let engine = Rz_verify.Engine.create (db_of "aut-num: AS1\n") rels in
  let route = Rz_bgp.Route.make (p "192.0.2.0/24") [ 1; 2; 1 ] in
  match Rz_verify.Engine.verify_route engine route with
  | Some report -> Alcotest.(check int) "hops reported" 4 (List.length report.hops)
  | None -> Alcotest.fail "unexpected exclusion"

(* ---------------- irrd / peval edges ---------------- *)

let test_irrd_empty_line_and_whitespace () =
  let db = db_of "aut-num: AS1\n" in
  Alcotest.(check bool) "blank query" true (Rz_irr.Irrd_query.answer db "   " = Rz_irr.Irrd_query.No_data)

let test_peval_empty_set () =
  let db = db_of "as-set: AS-EMPTY\n" in
  match Rz_irr.Filter_eval.eval_string db "AS-EMPTY" with
  | Ok r ->
    Alcotest.(check int) "no prefixes" 0 (List.length r.prefixes);
    Alcotest.(check int) "resolved (exists)" 0 (List.length r.unresolved)
  | Error e -> Alcotest.fail e

let test_peval_malformed () =
  let db = db_of "aut-num: AS1\n" in
  Alcotest.(check bool) "parse error surfaces" true
    (Result.is_error (Rz_irr.Filter_eval.eval_string db "AND AND"))

(* ---------------- generator determinism under load ---------------- *)

let test_world_regeneration_stable () =
  let params = { Rz_topology.Gen.default_params with n_tier1 = 2; n_mid = 10; n_stub = 20 } in
  let w1 = Rpslyzer.Pipeline.build_synthetic ~topo_params:params () in
  let w2 = Rpslyzer.Pipeline.build_synthetic ~topo_params:params () in
  List.iter2
    (fun (n1, t1) (n2, t2) ->
      Alcotest.(check string) "irr name" n1 n2;
      Alcotest.(check string) ("dump " ^ n1) t1 t2)
    w1.dumps w2.dumps;
  let routes w =
    List.concat_map (fun (d : Rz_bgp.Table_dump.t) -> d.routes) w.Rpslyzer.Pipeline.table_dumps
  in
  Alcotest.(check bool) "same collector routes" true
    (List.for_all2 Rz_bgp.Route.equal (routes w1) (routes w2))

let suite =
  [ Alcotest.test_case "default routes in trie" `Quick test_default_routes_in_trie;
    Alcotest.test_case "host routes" `Quick test_prefix_host_routes;
    Alcotest.test_case "asdot roundtrip" `Quick test_asn_asdot_roundtrip;
    Alcotest.test_case "range ops at extremes" `Quick test_range_op_full_lengths;
    Alcotest.test_case "case-insensitive keywords" `Quick test_case_insensitive_keywords;
    Alcotest.test_case "whitespace noise" `Quick test_whitespace_noise;
    Alcotest.test_case "deep filter nesting" `Quick test_filter_deep_nesting;
    Alcotest.test_case "empty braces rejected" `Quick test_empty_braced_term_rejected;
    Alcotest.test_case "default-route filter (AS14595)" `Quick test_verify_default_route_filter;
    Alcotest.test_case "very long path regex" `Quick test_verify_very_long_path;
    Alcotest.test_case "loop path tolerated" `Quick test_verify_route_two_hop_loop_path;
    Alcotest.test_case "irrd blank query" `Quick test_irrd_empty_line_and_whitespace;
    Alcotest.test_case "peval empty set" `Quick test_peval_empty_set;
    Alcotest.test_case "peval malformed" `Quick test_peval_malformed;
    Alcotest.test_case "world regeneration stable" `Quick test_world_regeneration_stable ]
