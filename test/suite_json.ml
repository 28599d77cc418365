(* Tests for rz_json: serialization, parsing, round-trips. *)
open Rz_json

let json = Alcotest.testable (fun fmt j -> Format.pp_print_string fmt (Json.to_string j)) Json.equal

let test_to_string_scalars () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "true" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int" "42" (Json.to_string (Json.Int 42));
  Alcotest.(check string) "negative" "-7" (Json.to_string (Json.Int (-7)));
  Alcotest.(check string) "string" "\"hi\"" (Json.to_string (Json.String "hi"))

let test_string_escapes () =
  Alcotest.(check string) "escapes" "\"a\\\"b\\\\c\\nd\\te\""
    (Json.to_string (Json.String "a\"b\\c\nd\te"));
  Alcotest.(check string) "control char" "\"\\u0001\""
    (Json.to_string (Json.String "\001"))

let test_compound () =
  let doc = Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]); ("n", Json.Null) ] in
  Alcotest.(check string) "compact" "{\"xs\":[1,2],\"n\":null}" (Json.to_string doc)

let test_pretty_roundtrip () =
  let doc =
    Json.Obj
      [ ("name", Json.String "AS-HANABI");
        ("members", Json.List [ Json.Int 38639; Json.String "nested" ]);
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
        ("pi", Json.Float 3.5) ]
  in
  let pretty = Json.to_string ~indent:2 doc in
  match Json.of_string pretty with
  | Ok parsed -> Alcotest.check json "pretty round-trips" doc parsed
  | Error e -> Alcotest.fail e

let test_parse_basics () =
  (match Json.of_string "  [1, 2.5, \"x\", null, true, false] " with
   | Ok (Json.List [ Json.Int 1; Json.Float f; Json.String "x"; Json.Null; Json.Bool true; Json.Bool false ]) ->
     Alcotest.(check (float 1e-9)) "float" 2.5 f
   | Ok _ -> Alcotest.fail "wrong structure"
   | Error e -> Alcotest.fail e)

let test_parse_nested_objects () =
  match Json.of_string {|{"a": {"b": [{"c": 1}]}}|} with
  | Ok doc ->
    let inner =
      Option.bind (Json.member "a" doc) (Json.member "b")
    in
    (match inner with
     | Some (Json.List [ item ]) ->
       Alcotest.check json "nested" (Json.Obj [ ("c", Json.Int 1) ]) item
     | _ -> Alcotest.fail "bad nesting")
  | Error e -> Alcotest.fail e

let test_parse_unicode_escape () =
  match Json.of_string "\"\\u0041\\u00e9\"" with
  | Ok (Json.String s) -> Alcotest.(check string) "utf8" "A\xc3\xa9" s
  | _ -> Alcotest.fail "expected string"

(* A \u escape is exactly four hex digits; anything else is refused with
   its own message, never read as another code point. *)
let test_unicode_escape_strict () =
  List.iter
    (fun (text, want) ->
      match (Json.of_string text, want) with
      | Ok (Json.String got), Ok s -> Alcotest.(check string) text s got
      | Error e, Error prefix ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S starts with %S" text e prefix)
          true
          (String.starts_with ~prefix e)
      | Ok j, _ -> Alcotest.failf "%s: parsed as %s" text (Json.to_string j)
      | Error e, Ok _ -> Alcotest.failf "%s: rejected: %s" text e)
    [ ({|"\u0041"|}, Ok "A");
      ({|"\u00E9"|}, Ok "\xc3\xa9");
      ({|"\uFFFF"|}, Ok "\xef\xbf\xbf");
      ({|"\u0_41"|}, Error "bad \\u escape");
      ({|"\u00zz"|}, Error "bad \\u escape");
      ({|"\u+041"|}, Error "bad \\u escape");
      ({|"\u 041"|}, Error "bad \\u escape");
      ({|"\u004"|}, Error "bad \\u escape") ]

let test_parse_errors () =
  let is_error s = Result.is_error (Json.of_string s) in
  Alcotest.(check bool) "trailing garbage" true (is_error "1 2");
  Alcotest.(check bool) "unterminated string" true (is_error "\"abc");
  Alcotest.(check bool) "unterminated list" true (is_error "[1, 2");
  Alcotest.(check bool) "bad literal" true (is_error "trueX");
  Alcotest.(check bool) "lone brace" true (is_error "{")

let test_member_and_to_list () =
  let doc = Json.Obj [ ("k", Json.Int 3) ] in
  Alcotest.(check bool) "member found" true (Json.member "k" doc = Some (Json.Int 3));
  Alcotest.(check bool) "member missing" true (Json.member "z" doc = None);
  Alcotest.(check bool) "member on non-obj" true (Json.member "k" (Json.Int 1) = None);
  Alcotest.(check int) "to_list" 2 (List.length (Json.to_list (Json.List [ Json.Null; Json.Null ])))

let test_int_float_equal () =
  Alcotest.(check bool) "1 = 1.0" true (Json.equal (Json.Int 1) (Json.Float 1.0))

(* Random JSON generator for round-trip property. *)
let rec gen_json depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-1000000) 1000000);
        map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 10)) ]
  else
    frequency
      [ (2, gen_json 0);
        (1, map (fun xs -> Json.List xs) (list_size (int_range 0 4) (gen_json (depth - 1))));
        ( 1,
          map
            (fun kvs ->
              (* distinct keys, or structural equality after re-parse breaks *)
              let kvs =
                List.mapi (fun i (k, v) -> (Printf.sprintf "%s_%d" k i, v)) kvs
              in
              Json.Obj kvs)
            (list_size (int_range 0 4)
               (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 6))
                  (gen_json (depth - 1)))) ) ]

let roundtrip_prop =
  QCheck.Test.make ~name:"to_string |> of_string round-trips" ~count:300
    (QCheck.make (gen_json 3))
    (fun doc ->
      match Json.of_string (Json.to_string doc) with
      | Ok parsed -> Json.equal doc parsed
      | Error _ -> false)

let suite =
  [ Alcotest.test_case "scalars" `Quick test_to_string_scalars;
    Alcotest.test_case "string escapes" `Quick test_string_escapes;
    Alcotest.test_case "compound" `Quick test_compound;
    Alcotest.test_case "pretty round-trip" `Quick test_pretty_roundtrip;
    Alcotest.test_case "parse basics" `Quick test_parse_basics;
    Alcotest.test_case "parse nested" `Quick test_parse_nested_objects;
    Alcotest.test_case "unicode escape" `Quick test_parse_unicode_escape;
    Alcotest.test_case "unicode escape is four hex digits" `Quick test_unicode_escape_strict;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "member / to_list" `Quick test_member_and_to_list;
    Alcotest.test_case "int/float equality" `Quick test_int_float_equal;
    QCheck_alcotest.to_alcotest roundtrip_prop ]
