(* Tests for Rz_policy.Action_eval: RFC 2622 action semantics including
   the pref/LocalPref inversion the paper's footnote 5 highlights. *)
module AE = Rz_policy.Action_eval

(* The action list of the one peering of [from AS1 action <text>;
   accept ANY], as the engine hands it to [AE.apply]. *)
let actions_of text =
  match
    Rz_policy.Parser.parse_rule ~direction:`Import ~multiprotocol:false
      (Printf.sprintf "from AS1 action %s; accept ANY" text)
  with
  | Ok rule -> (
    match rule.expr with
    | Rz_policy.Ast.Term_e { factors = [ { peerings = [ pa ]; _ } ]; _ } -> pa.actions
    | _ -> Alcotest.fail (text ^ ": expected one peering"))
  | Error e -> Alcotest.fail (text ^ ": " ^ e)

let apply text =
  match AE.apply (actions_of text) AE.empty with
  | Ok attrs -> attrs
  | Error e -> Alcotest.fail (text ^ ": " ^ e)

let apply_err text =
  match AE.apply (actions_of text) AE.empty with
  | Ok _ -> Alcotest.failf "%s unexpectedly succeeded" text
  | Error e -> e

let test_pref_inversion () =
  (* footnote 5: LocalPref = 65535 - pref, so pref=50 is HIGH preference *)
  Alcotest.(check (option int)) "pref 50" (Some 65485) (apply "pref=50").local_pref;
  Alcotest.(check (option int)) "pref 65535" (Some 0) (apply "pref=65535").local_pref;
  Alcotest.(check (option int)) "pref 0" (Some 65535) (apply "pref=0").local_pref;
  Alcotest.(check (option int)) "conversion clamps" (Some 0) (apply "pref=99999").local_pref

let test_pref_ordering_matches_paper_example () =
  (* AS199284: pref=65535 for community 65535:0 routes, 65435 otherwise —
     under the inversion the 65535:0 routes end up LESS preferred *)
  let special = (apply "pref = 65535").local_pref in
  let normal = (apply "pref = 65435").local_pref in
  Alcotest.(check bool) "65535 -> lower LocalPref" true (special < normal)

let test_med_and_dpa () =
  Alcotest.(check (option int)) "med" (Some 10) (apply "med = 10").med;
  Alcotest.(check (option int)) "med igp_cost clears" None (apply "med = igp_cost").med;
  Alcotest.(check (option int)) "dpa" (Some 7) (apply "dpa = 7").dpa

let test_community_append_and_delete () =
  let attrs = apply "community .= { 64628:20, 64628:21 }" in
  Alcotest.(check (list (pair int int))) "append" [ (64628, 20); (64628, 21) ]
    attrs.communities;
  (* append is idempotent per value *)
  let attrs2 =
    match
      AE.apply (actions_of "community.append(64628:20, 64628:22)") attrs
    with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list (pair int int))) "dedup append"
    [ (64628, 20); (64628, 21); (64628, 22) ]
    attrs2.communities;
  let attrs3 =
    match AE.apply (actions_of "community.delete(64628:21)") attrs2 with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list (pair int int))) "delete" [ (64628, 20); (64628, 22) ]
    attrs3.communities

let test_community_replace () =
  let attrs = apply "community = 65000:1" in
  Alcotest.(check (list (pair int int))) "replace" [ (65000, 1) ] attrs.communities

let test_well_known_communities () =
  Alcotest.(check (list (pair int int))) "NO_EXPORT" [ (65535, 65281) ]
    (apply "community = NO_EXPORT").communities;
  Alcotest.(check (list (pair int int))) "BLACKHOLE" [ (65535, 666) ]
    (apply "community = blackhole").communities;
  Alcotest.(check string) "to_string" "65535:666" (AE.community_to_string (65535, 666));
  Alcotest.(check bool) "garbage rejected" true
    (String.length (apply_err "community = banana") > 0);
  Alcotest.(check bool) "out of range" true
    (String.length (apply_err "community = 70000:1") > 0)

let test_aspath_prepend () =
  let attrs = apply "aspath.prepend(AS65000, AS65000)" in
  Alcotest.(check (list int)) "prepends" [ 65000; 65000 ] attrs.prepends

let test_multiple_actions_in_order () =
  let attrs = apply "pref = 100; med = 5; community .= { 65000:1 }" in
  Alcotest.(check (option int)) "pref applied" (Some 65435) attrs.local_pref;
  Alcotest.(check (option int)) "med applied" (Some 5) attrs.med;
  Alcotest.(check (list (pair int int))) "community applied" [ (65000, 1) ] attrs.communities

let test_paper_as8323_actions () =
  (* Appendix A: from AS8267:AS-Krakow-1014 action pref=50 — a strongly
     preferred import under the RFC semantics *)
  let attrs = apply "pref=50" in
  Alcotest.(check (option int)) "LocalPref 65485" (Some 65485) attrs.local_pref

let test_errors () =
  Alcotest.(check bool) "unknown attribute" true
    (String.length (apply_err "colour = 7") > 0);
  Alcotest.(check bool) "bad integer" true (String.length (apply_err "pref = high") > 0);
  Alcotest.(check bool) "contains is not an action" true
    (String.length (apply_err "community.contains(65000:1)") > 0);
  Alcotest.(check bool) "bad community" true
    (String.length (apply_err "community.append(bogus)") > 0)

let suite =
  [ Alcotest.test_case "pref inversion (footnote 5)" `Quick test_pref_inversion;
    Alcotest.test_case "pref ordering (AS199284)" `Quick test_pref_ordering_matches_paper_example;
    Alcotest.test_case "med / dpa" `Quick test_med_and_dpa;
    Alcotest.test_case "community append/delete" `Quick test_community_append_and_delete;
    Alcotest.test_case "community replace" `Quick test_community_replace;
    Alcotest.test_case "well-known communities" `Quick test_well_known_communities;
    Alcotest.test_case "aspath prepend" `Quick test_aspath_prepend;
    Alcotest.test_case "action order" `Quick test_multiple_actions_in_order;
    Alcotest.test_case "AS8323 pref" `Quick test_paper_as8323_actions;
    Alcotest.test_case "errors" `Quick test_errors ]
