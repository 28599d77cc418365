(* Tests for rz_aspath: regex parsing and matching, including the
   paper's future-work extensions (ASN ranges, ~ operators), plus the
   differential property against the paper's Cartesian-product
   formulation. *)
open Rz_aspath

let parse s =
  match Regex_parse.parse s with Ok ast -> ast | Error e -> Alcotest.fail (s ^ ": " ^ e)

let matches ?env s path = Regex_match.matches ?env (parse s) (Array.of_list path)

let check_match ?env s path expect =
  Alcotest.(check bool) (Printf.sprintf "%s vs %s" s (String.concat " " (List.map string_of_int path)))
    expect (matches ?env s path)

let test_parse_roundtrip () =
  List.iter
    (fun (input, expect) -> Alcotest.(check string) input expect (Regex_ast.to_string (parse input)))
    [ ("^AS13911 AS6327+$", "^ AS13911 AS6327+ $");
      ("AS1 | AS2", "(AS1 | AS2)");
      (".* AS1?", ".* AS1?");
      ("[AS1 AS2]", "[AS1 AS2]");
      ("[^AS1]", "[^AS1]");
      ("AS1{2,4}", "AS1{2,4}");
      ("AS1{3}", "AS1{3}");
      ("AS1{2,}", "AS1{2,}");
      ("AS1~+", "AS1~+");
      ("AS1~*", "AS1~*");
      ("[AS64496-AS64511]", "[AS64496-AS64511]");
      ("AS-FOO-BAR", "AS-FOO-BAR");
      ("PeerAS", "PeerAS") ]

let test_parse_errors () =
  let bad s = Alcotest.(check bool) s true (Result.is_error (Regex_parse.parse s)) in
  bad "(AS1";
  bad "[AS1";
  bad "AS1{";
  bad "AS1{a}";
  bad "AS1 )";
  bad "(AS1 AS2)~+" (* tilde needs a single term *)

let test_anchored () =
  check_match "^AS1$" [ 1 ] true;
  check_match "^AS1$" [ 1; 2 ] false;
  check_match "^AS1" [ 1; 2 ] true;
  check_match "AS2$" [ 1; 2 ] true;
  check_match "^AS2" [ 1; 2 ] false

let test_unanchored_search () =
  check_match "AS5" [ 1; 5; 9 ] true;
  check_match "AS5 AS9" [ 1; 5; 9 ] true;
  check_match "AS9 AS5" [ 1; 5; 9 ] false;
  check_match "AS7" [ 1; 5; 9 ] false

let test_quantifiers () =
  check_match "^AS1 AS2* AS3$" [ 1; 3 ] true;
  check_match "^AS1 AS2* AS3$" [ 1; 2; 2; 2; 3 ] true;
  check_match "^AS1 AS2+ AS3$" [ 1; 3 ] false;
  check_match "^AS1 AS2+ AS3$" [ 1; 2; 3 ] true;
  check_match "^AS1 AS2? AS3$" [ 1; 2; 3 ] true;
  check_match "^AS1 AS2? AS3$" [ 1; 2; 2; 3 ] false

let test_repetition_bounds () =
  check_match "^AS2{2,3}$" [ 2; 2 ] true;
  check_match "^AS2{2,3}$" [ 2; 2; 2 ] true;
  check_match "^AS2{2,3}$" [ 2 ] false;
  check_match "^AS2{2,3}$" [ 2; 2; 2; 2 ] false;
  check_match "^AS2{2}$" [ 2; 2 ] true;
  check_match "^AS2{2,}$" [ 2; 2; 2; 2; 2 ] true;
  check_match "^AS2{2,}$" [ 2 ] false

let test_wildcard_and_classes () =
  check_match "^AS1 . AS3$" [ 1; 99; 3 ] true;
  check_match "^AS1 . AS3$" [ 1; 3 ] false;
  check_match "^[AS2 AS4]+$" [ 2; 4; 2 ] true;
  check_match "^[AS2 AS4]+$" [ 2; 5 ] false;
  check_match "^[^AS2 AS4]$" [ 7 ] true;
  check_match "^[^AS2 AS4]$" [ 2 ] false

let test_asn_ranges () =
  check_match "^[AS64496-AS64511]+$" [ 64500; 64511 ] true;
  check_match "^[AS64496-AS64511]+$" [ 64512 ] false;
  check_match "^AS64496-AS64511$" [ 64496 ] true

let test_alternation () =
  check_match "^(AS1 | AS2) AS3$" [ 2; 3 ] true;
  check_match "^(AS1 | AS2) AS3$" [ 1; 3 ] true;
  check_match "^(AS1 | AS2) AS3$" [ 4; 3 ] false

let test_tilde_same_pattern () =
  (* ~+ repeats the SAME ASN; plain + would also accept mixtures *)
  check_match "^[AS1 AS2]~+$" [ 1; 1; 1 ] true;
  check_match "^[AS1 AS2]~+$" [ 2; 2 ] true;
  check_match "^[AS1 AS2]~+$" [ 1; 2 ] false;
  check_match "^[AS1 AS2]+$" [ 1; 2 ] true;
  check_match "^AS9 [AS1 AS2]~*$" [ 9 ] true;
  check_match "^AS9 [AS1 AS2]~*$" [ 9; 2; 2 ] true;
  check_match "^AS9 [AS1 AS2]~*$" [ 9; 2; 1 ] false

let test_peeras_binding () =
  let env = { Regex_match.default_env with peer_as = Some 5 } in
  check_match ~env "^PeerAS" [ 5; 9 ] true;
  check_match ~env "^PeerAS" [ 6; 9 ] false;
  (* unbound PeerAS matches nothing *)
  check_match "^PeerAS" [ 5; 9 ] false

let test_as_set_resolution () =
  let env =
    { Regex_match.asn_in_set = (fun name asn -> name = "AS-FOO" && (asn = 10 || asn = 11));
      peer_as = None }
  in
  check_match ~env "^AS-FOO+$" [ 10; 11 ] true;
  check_match ~env "^AS-FOO+$" [ 10; 12 ] false;
  check_match ~env "^AS-OTHER$" [ 10 ] false

let test_empty_path () =
  check_match "^$" [] true;
  check_match "^AS1$" [] false;
  check_match ".*" [] true

let test_paper_example () =
  (* <^AS13911 AS6327+$> from the AS14595 compound rule *)
  check_match "^AS13911 AS6327+$" [ 13911; 6327 ] true;
  check_match "^AS13911 AS6327+$" [ 13911; 6327; 6327 ] true;
  check_match "^AS13911 AS6327+$" [ 13911; 1; 6327 ] false;
  check_match "^AS13911 AS6327+$" [ 6327 ] false

let test_future_work_detection () =
  Alcotest.(check bool) "range flagged" true
    (Regex_ast.uses_future_work_features (parse "[AS1-AS5]"));
  Alcotest.(check bool) "tilde flagged" true
    (Regex_ast.uses_future_work_features (parse "AS1~+"));
  Alcotest.(check bool) "plain not flagged" false
    (Regex_ast.uses_future_work_features (parse "^AS1 .* AS2$"))

let test_terms_in_order () =
  let show = function
    | Regex_ast.Asn n -> Printf.sprintf "AS%d" n
    | Regex_ast.As_set name -> name
    | t -> Regex_ast.to_string (Regex_ast.Term t)
  in
  Alcotest.(check (list string)) "left to right, classes opened"
    [ "AS1"; "AS2"; "AS-FOO"; "AS3"; "AS-BAR"; "PeerAS"; "."; "AS4-AS6" ]
    (List.map show
       (Regex_ast.terms
          (parse "^AS1 [AS2 AS-FOO]+ (AS3 | AS-BAR~*) [^PeerAS]? .{2} AS4-AS6$")))

(* Differential property: the backtracking matcher agrees with the
   paper's explicit Cartesian-product formulation. *)
let small_regex_gen =
  let open QCheck.Gen in
  let term = oneofl [ "AS1"; "AS2"; "AS3"; "."; "[AS1 AS2]"; "[^AS1]" ] in
  let postfix = oneofl [ ""; "*"; "+"; "?" ] in
  let piece = map2 (fun t p -> t ^ p) term postfix in
  let body = map (String.concat " ") (list_size (int_range 1 4) piece) in
  map2
    (fun anchored body -> if anchored then "^" ^ body ^ "$" else body)
    bool body

let path_gen = QCheck.Gen.(list_size (int_range 0 4) (int_range 1 4))

let differential_product =
  QCheck.Test.make ~name:"backtracking matcher = Cartesian-product matcher" ~count:500
    (QCheck.make (QCheck.Gen.pair small_regex_gen path_gen))
    (fun (regex_s, path) ->
      match Regex_parse.parse regex_s with
      | Error _ -> QCheck.assume_fail ()
      | Ok ast ->
        let path = Array.of_list path in
        let fast = Regex_match.matches ast path in
        let slow = Regex_match.matches_product ast path in
        fast = slow)

(* NFA evaluator: agrees with the backtracking matcher on every case. *)
let nfa_matches s path =
  Regex_nfa.matches (Regex_nfa.compile (parse s)) (Array.of_list path)

let test_nfa_basics () =
  List.iter
    (fun (regex, path, expect) ->
      Alcotest.(check bool) regex expect (nfa_matches regex path))
    [ ("^AS13911 AS6327+$", [ 13911; 6327; 6327 ], true);
      ("^AS13911 AS6327+$", [ 13911; 1; 6327 ], false);
      ("AS5", [ 1; 5; 9 ], true);
      ("^AS5", [ 1; 5; 9 ], false);
      ("^AS2{2,3}$", [ 2; 2 ], true);
      ("^AS2{2,3}$", [ 2 ], false);
      ("^[^AS3 AS4]+$", [ 1; 3 ], false);
      ("^[AS1 AS2]~+$", [ 1; 2 ], false);
      ("^[AS1 AS2]~+$", [ 2; 2 ], true);
      ("^AS9 [AS1 AS2]~*$", [ 9 ], true);
      ("^$", [], true) ]

let test_nfa_state_count () =
  let t = Regex_nfa.compile (parse "^AS1 (AS2 | AS3)* AS4$") in
  Alcotest.(check bool) "some states" true (Regex_nfa.state_count t > 5)

let nfa_differential =
  QCheck.Test.make ~name:"NFA evaluator = backtracking matcher" ~count:500
    (QCheck.make (QCheck.Gen.pair small_regex_gen path_gen))
    (fun (regex_s, path) ->
      match Regex_parse.parse regex_s with
      | Error _ -> QCheck.assume_fail ()
      | Ok ast ->
        let path = Array.of_list path in
        Regex_match.matches ast path = Regex_nfa.matches (Regex_nfa.compile ast) path)

let nfa_differential_tilde =
  QCheck.Test.make ~name:"NFA handles ~ operators like the matcher" ~count:300
    (QCheck.make
       QCheck.Gen.(pair (oneofl [ "^AS1~+$"; "AS1~*"; "^[AS1 AS2]~+ AS3$"; "^AS3 [AS1 AS2]~*$" ])
                     (list_size (int_range 0 5) (int_range 1 3))))
    (fun (regex_s, path) ->
      match Regex_parse.parse regex_s with
      | Error _ -> QCheck.assume_fail ()
      | Ok ast ->
        let path = Array.of_list path in
        Regex_match.matches ast path = Regex_nfa.matches (Regex_nfa.compile ast) path)

let suite =
  [ Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "anchors" `Quick test_anchored;
    Alcotest.test_case "unanchored search" `Quick test_unanchored_search;
    Alcotest.test_case "quantifiers" `Quick test_quantifiers;
    Alcotest.test_case "repetition bounds" `Quick test_repetition_bounds;
    Alcotest.test_case "wildcard / classes" `Quick test_wildcard_and_classes;
    Alcotest.test_case "asn ranges" `Quick test_asn_ranges;
    Alcotest.test_case "alternation" `Quick test_alternation;
    Alcotest.test_case "tilde same-pattern ops" `Quick test_tilde_same_pattern;
    Alcotest.test_case "PeerAS binding" `Quick test_peeras_binding;
    Alcotest.test_case "as-set resolution" `Quick test_as_set_resolution;
    Alcotest.test_case "empty path" `Quick test_empty_path;
    Alcotest.test_case "paper example regex" `Quick test_paper_example;
    Alcotest.test_case "future-work detection" `Quick test_future_work_detection;
    Alcotest.test_case "terms in written order" `Quick test_terms_in_order;
    QCheck_alcotest.to_alcotest differential_product;
    Alcotest.test_case "nfa basics" `Quick test_nfa_basics;
    Alcotest.test_case "nfa state count" `Quick test_nfa_state_count;
    QCheck_alcotest.to_alcotest nfa_differential;
    QCheck_alcotest.to_alcotest nfa_differential_tilde ]
