(* Tests for Rz_stats.Classify and Rz_stats.Evolution — the paper's
   future-work tooling. *)
module Classify = Rz_stats.Classify
module Evolution = Rz_stats.Evolution
module Rel_db = Rz_asrel.Rel_db

let db_of text = Rz_irr.Db.of_dumps [ ("TEST", text) ]

let classify_one ?rels db asn =
  if Rz_irr.Db.find_aut_num db asn = None then Alcotest.fail "aut-num missing";
  List.hd (Classify.classify_all ?rels ~observed:[ asn ] db)

let test_silent () =
  let db = db_of "aut-num: AS1\n" in
  Alcotest.(check string) "silent" "silent"
    (Classify.style_to_string (classify_one db 1).style)

let test_open_policy () =
  let db = db_of "aut-num: AS1\nimport: from AS-ANY accept ANY\nexport: to AS-ANY announce ANY\n" in
  let p = classify_one db 1 in
  Alcotest.(check string) "open" "open-policy" (Classify.style_to_string p.style);
  Alcotest.(check int) "2 rules" 2 p.n_rules

let test_simple () =
  let db =
    db_of "aut-num: AS1\nimport: from AS2 accept AS-X\nexport: to AS2 announce AS1\n\nas-set: AS-X\nmembers: AS2\n"
  in
  let p = classify_one db 1 in
  Alcotest.(check string) "simple" "simple" (Classify.style_to_string p.style);
  Alcotest.(check bool) "uses sets" true p.uses_sets;
  Alcotest.(check int) "declared neighbors" 1 p.n_neighbors_declared

let test_expressive () =
  let db = db_of "aut-num: AS1\nimport: from AS2 accept <^AS2+$>\n" in
  Alcotest.(check string) "expressive" "expressive"
    (Classify.style_to_string (classify_one db 1).style)

let test_provider_only () =
  let rels = Rel_db.create () in
  Rel_db.add_p2c rels ~provider:10 ~customer:1;
  Rel_db.add_p2c rels ~provider:1 ~customer:5;
  let db = db_of "aut-num: AS1\nimport: from AS10 accept ANY\nexport: to AS10 announce AS1\n" in
  Alcotest.(check string) "provider-only" "provider-only"
    (Classify.style_to_string (classify_one ~rels db 1).style);
  (* without relationships we cannot tell: falls back to simple *)
  Alcotest.(check string) "without rels" "simple"
    (Classify.style_to_string (classify_one db 1).style)

let test_classify_all_and_histogram () =
  let db = db_of "aut-num: AS1\nimport: from AS-ANY accept ANY\nexport: to AS-ANY announce ANY\n" in
  let profiles = Classify.classify_all ~observed:[ 1; 2 ] db in
  Alcotest.(check int) "two profiles" 2 (List.length profiles);
  let hist = Classify.histogram profiles in
  Alcotest.(check int) "one unregistered" 1 (List.assoc Classify.Unregistered hist);
  Alcotest.(check int) "one open" 1 (List.assoc Classify.Open_policy hist)

let test_classifier_recovers_generator_personas () =
  (* ground-truth check: the classifier's categories line up with the
     synthetic generator's personas *)
  let topo =
    Rz_topology.Gen.generate
      { Rz_topology.Gen.default_params with n_tier1 = 3; n_mid = 25; n_stub = 80 }
  in
  let world = Rz_synthirr.Generate.generate topo in
  let db = Rz_irr.Db.of_dumps world.dumps in
  let agree = ref 0 and total = ref 0 in
  Hashtbl.iter
    (fun asn (profile : Rz_synthirr.Generate.profile) ->
      let expected =
        match profile.persona with
        | Rz_synthirr.Generate.No_aut_num -> Some Classify.Unregistered
        | Rz_synthirr.Generate.No_rules -> Some Classify.Silent
        | Rz_synthirr.Generate.Any_any -> Some Classify.Open_policy
        | Rz_synthirr.Generate.Complex -> Some Classify.Expressive
        | Rz_synthirr.Generate.Regular | Rz_synthirr.Generate.Only_provider -> None
      in
      match expected with
      | None -> ()
      | Some style ->
        incr total;
        let got = List.hd (Classify.classify_all ~rels:topo.rels ~observed:[ asn ] db) in
        if got.style = style then incr agree)
    world.profiles;
  Alcotest.(check bool) "sampled personas" true (!total > 30);
  let accuracy = float_of_int !agree /. float_of_int !total in
  Alcotest.(check bool)
    (Printf.sprintf "accuracy %.2f >= 0.9" accuracy)
    true (accuracy >= 0.9)

(* ---------------- evolution ---------------- *)

let ir_of text =
  let ir = Rz_ir.Ir.create () in
  ignore (Rz_ir.Lower.add_dump ir ~source:"SNAP" text);
  ir

let test_diff_empty () =
  let snapshot = ir_of "aut-num: AS1\nimport: from AS2 accept ANY\n" in
  let d = Evolution.diff ~before:snapshot ~after:snapshot in
  Alcotest.(check bool) "identical snapshots" true (Evolution.is_empty d);
  Alcotest.(check string) "summary" "no changes between snapshots" (Evolution.summary d)

let test_diff_objects () =
  let before =
    ir_of
      "aut-num: AS1\nimport: from AS2 accept ANY\n\naut-num: AS2\n\n\
       as-set: AS-X\nmembers: AS1\n\nroute: 192.0.2.0/24\norigin: AS1\n"
  in
  let after =
    ir_of
      "aut-num: AS1\nimport: from AS2 accept ANY\nexport: to AS2 announce AS1\n\n\
       aut-num: AS3\n\n\
       as-set: AS-X\nmembers: AS1, AS9\n\nas-set: AS-NEW\nmembers: AS3\n\n\
       route: 198.51.100.0/24\norigin: AS1\n"
  in
  let d = Evolution.diff ~before ~after in
  Alcotest.(check (list int)) "added aut-num" [ 3 ] d.aut_nums_added;
  Alcotest.(check (list int)) "removed aut-num" [ 2 ] d.aut_nums_removed;
  Alcotest.(check int) "AS1 policy changed" 1 (List.length d.rules_changed);
  (let change = List.hd d.rules_changed in
   Alcotest.(check int) "rules before" 1 change.before_rules;
   Alcotest.(check int) "rules after" 2 change.after_rules);
  Alcotest.(check (list string)) "as-set added" [ "AS-NEW" ] d.as_sets_added;
  Alcotest.(check (list string)) "as-set changed" [ "AS-X" ] d.as_sets_changed;
  Alcotest.(check int) "route added" 1 d.routes_added;
  Alcotest.(check int) "route removed" 1 d.routes_removed;
  Alcotest.(check bool) "not empty" false (Evolution.is_empty d)

let test_diff_across_generated_snapshots () =
  (* two generator seeds = two "scrapes"; the diff machinery must cope
     with realistic volumes *)
  let topo =
    Rz_topology.Gen.generate
      { Rz_topology.Gen.default_params with n_tier1 = 3; n_mid = 15; n_stub = 50 }
  in
  let snap config_seed =
    let world =
      Rz_synthirr.Generate.generate
        ~config:{ Rz_synthirr.Config.default with seed = config_seed } topo
    in
    let ir = Rz_ir.Ir.create () in
    List.iter (fun (src, text) -> ignore (Rz_ir.Lower.add_dump ir ~source:src text)) world.dumps;
    ir
  in
  let d = Evolution.diff ~before:(snap 1) ~after:(snap 2) in
  Alcotest.(check bool) "detects churn" false (Evolution.is_empty d);
  Alcotest.(check bool) "summary is non-trivial" true (String.length (Evolution.summary d) > 20)

let suite =
  [ Alcotest.test_case "silent" `Quick test_silent;
    Alcotest.test_case "open policy" `Quick test_open_policy;
    Alcotest.test_case "simple" `Quick test_simple;
    Alcotest.test_case "expressive" `Quick test_expressive;
    Alcotest.test_case "provider-only" `Quick test_provider_only;
    Alcotest.test_case "classify_all / histogram" `Quick test_classify_all_and_histogram;
    Alcotest.test_case "recovers generator personas" `Quick test_classifier_recovers_generator_personas;
    Alcotest.test_case "diff: empty" `Quick test_diff_empty;
    Alcotest.test_case "diff: objects" `Quick test_diff_objects;
    Alcotest.test_case "diff: generated snapshots" `Quick test_diff_across_generated_snapshots ]
