(* Tests for rz_rpsl: dump reader (continuations, comments, errors) and
   set-name validation. *)
open Rz_rpsl

let parse = Reader.parse_string

let test_single_object () =
  let r = parse "aut-num: AS65000\nas-name: TEST\n" in
  Alcotest.(check int) "one object" 1 (List.length r.objects);
  let obj = List.hd r.objects in
  Alcotest.(check string) "class" "aut-num" obj.Obj.cls;
  Alcotest.(check string) "name" "AS65000" obj.name;
  Alcotest.(check (option string)) "as-name" (Some "TEST") (Obj.value obj "as-name")

let test_multiple_objects () =
  let r = parse "aut-num: AS1\n\n\nroute: 10.0.0.0/8\norigin: AS1\n\nas-set: AS-X\n" in
  Alcotest.(check int) "three objects" 3 (List.length r.objects);
  Alcotest.(check (list string)) "classes" [ "aut-num"; "route"; "as-set" ]
    (List.map (fun o -> o.Obj.cls) r.objects)

let test_continuation_lines () =
  let text = "as-set: AS-FOO\nmembers: AS1,\n AS2,\n\tAS3,\n+AS4\n" in
  let r = parse text in
  let obj = List.hd r.objects in
  (* folded value keeps logical lines joined by \n *)
  let members = Option.get (Obj.value obj "members") in
  Alcotest.(check string) "folded" "AS1,\nAS2,\nAS3,\nAS4" members

let test_plus_continuation_empty () =
  (* a '+' alone continues with an empty line and must not add content *)
  let r = parse "descr: line1\n+\n+ line2\n" in
  let obj = List.hd r.objects in
  Alcotest.(check (option string)) "value" (Some "line1\nline2") (Obj.value obj "descr")

let test_comments_stripped () =
  let r = parse "aut-num: AS1 # trailing comment\nas-name: X#y\n" in
  let obj = List.hd r.objects in
  Alcotest.(check string) "name clean" "AS1" obj.Obj.name;
  Alcotest.(check (option string)) "attr clean" (Some "X") (Obj.value obj "as-name")

let test_percent_lines_ignored () =
  let r = parse "% whois server remark\naut-num: AS1\n% another\nas-name: X\n" in
  Alcotest.(check int) "one object" 1 (List.length r.objects);
  Alcotest.(check int) "no errors" 0 (List.length r.errors);
  Alcotest.(check (option string)) "attrs intact" (Some "X")
    (Obj.value (List.hd r.objects) "as-name")

let test_multivalued_attrs () =
  let r = parse "aut-num: AS1\nimport: from AS2 accept ANY\nimport: from AS3 accept ANY\n" in
  let obj = List.hd r.objects in
  Alcotest.(check int) "two imports" 2 (List.length (Obj.values obj "import"))

let test_error_lines_recorded () =
  let r = parse "aut-num: AS1\nthis line has no colon\nas-name: X\n" in
  Alcotest.(check int) "one error" 1 (List.length r.errors);
  Alcotest.(check int) "object survives" 1 (List.length r.objects);
  Alcotest.(check (option string)) "later attr kept" (Some "X")
    (Obj.value (List.hd r.objects) "as-name")

let test_bad_key_recorded () =
  let r = parse "aut-num: AS1\nbad key: value\n" in
  Alcotest.(check int) "one error" 1 (List.length r.errors)

let test_continuation_outside_object () =
  let r = parse "  stray continuation\naut-num: AS1\n" in
  Alcotest.(check int) "error recorded" 1 (List.length r.errors);
  Alcotest.(check int) "object parsed" 1 (List.length r.objects)

let test_line_numbers () =
  let r = parse "\n\naut-num: AS1\n\nroute: 10.0.0.0/8\norigin: AS1\n" in
  Alcotest.(check (list int)) "line numbers" [ 3; 5 ]
    (List.map (fun o -> o.Obj.line) r.objects)

let test_keys_lowercased () =
  let r = parse "AUT-NUM: AS1\nAS-NAME: X\n" in
  let obj = List.hd r.objects in
  Alcotest.(check string) "class lower" "aut-num" obj.Obj.cls;
  Alcotest.(check (option string)) "lookup by any case" (Some "X") (Obj.value obj "As-Name")

let test_crlf_line_endings () =
  let r = parse "aut-num: AS1\r\nas-name: X\r\n\r\nroute: 10.0.0.0/8\r\norigin: AS1\r\n" in
  Alcotest.(check int) "two objects" 2 (List.length r.objects);
  Alcotest.(check int) "no errors" 0 (List.length r.errors);
  Alcotest.(check (option string)) "values clean of CR" (Some "X")
    (Obj.value (List.hd r.objects) "as-name")

(* ---------------- set names ---------------- *)

let test_set_name_valid () =
  Alcotest.(check bool) "plain as-set" true (Set_name.is_valid Set_name.As_set "AS-FOO");
  Alcotest.(check bool) "hierarchical" true
    (Set_name.is_valid Set_name.As_set "AS8267:AS-KRAKOW");
  Alcotest.(check bool) "set first" true (Set_name.is_valid Set_name.As_set "AS-FOO:AS123");
  Alcotest.(check bool) "route-set" true (Set_name.is_valid Set_name.Route_set "RS-BAR");
  Alcotest.(check bool) "peering-set" true (Set_name.is_valid Set_name.Peering_set "PRNG-X");
  Alcotest.(check bool) "filter-set" true (Set_name.is_valid Set_name.Filter_set "FLTR-MARTIAN-V4")

let test_set_name_invalid () =
  Alcotest.(check bool) "no prefix" false (Set_name.is_valid Set_name.As_set "FOO");
  Alcotest.(check bool) "only asns" false (Set_name.is_valid Set_name.As_set "AS1:AS2");
  Alcotest.(check bool) "reserved AS-ANY" false (Set_name.is_valid Set_name.As_set "AS-ANY");
  Alcotest.(check bool) "reserved RS-ANY" false (Set_name.is_valid Set_name.Route_set "RS-ANY");
  Alcotest.(check bool) "wrong kind" false (Set_name.is_valid Set_name.As_set "RS-FOO");
  Alcotest.(check bool) "empty suffix" false (Set_name.is_valid Set_name.As_set "AS-");
  Alcotest.(check bool) "bad chars" false (Set_name.is_valid Set_name.As_set "AS-F OO")

let test_set_name_classify () =
  Alcotest.(check bool) "as-set" true (Set_name.classify "AS1:AS-X" = Some Set_name.As_set);
  Alcotest.(check bool) "route-set" true (Set_name.classify "RS-Y" = Some Set_name.Route_set);
  Alcotest.(check bool) "peering-set" true (Set_name.classify "PRNG-Z" = Some Set_name.Peering_set);
  Alcotest.(check bool) "filter-set" true (Set_name.classify "FLTR-W" = Some Set_name.Filter_set);
  Alcotest.(check bool) "plain asn" true (Set_name.classify "AS123" = None);
  (* the last set-prefixed component decides *)
  Alcotest.(check bool) "last wins" true
    (Set_name.classify "AS-X:RS-Y" = Some Set_name.Route_set)

let test_set_name_canonical () =
  Alcotest.(check string) "uppercased" "AS-FOO" (Set_name.canonical "as-Foo");
  Alcotest.(check (list string)) "components" [ "AS1"; "AS-X" ] (Set_name.components "AS1:AS-X")

let test_attr_make () =
  let a = Attr.make "  IMPORT " " from AS1 accept ANY " in
  Alcotest.(check string) "key lower+strip" "import" a.Attr.key;
  Alcotest.(check string) "value strip" "from AS1 accept ANY" a.value

let reader_never_raises =
  QCheck.Test.make ~name:"reader never raises on arbitrary text" ~count:300
    (QCheck.make QCheck.Gen.(string_size ~gen:printable (int_range 0 200)))
    (fun text ->
      let r = parse text in
      List.length r.objects >= 0 && List.length r.errors >= 0)

let suite =
  [ Alcotest.test_case "single object" `Quick test_single_object;
    Alcotest.test_case "multiple objects" `Quick test_multiple_objects;
    Alcotest.test_case "continuation lines" `Quick test_continuation_lines;
    Alcotest.test_case "plus continuation" `Quick test_plus_continuation_empty;
    Alcotest.test_case "comments stripped" `Quick test_comments_stripped;
    Alcotest.test_case "percent lines ignored" `Quick test_percent_lines_ignored;
    Alcotest.test_case "multivalued attrs" `Quick test_multivalued_attrs;
    Alcotest.test_case "error lines recorded" `Quick test_error_lines_recorded;
    Alcotest.test_case "bad key recorded" `Quick test_bad_key_recorded;
    Alcotest.test_case "stray continuation" `Quick test_continuation_outside_object;
    Alcotest.test_case "line numbers" `Quick test_line_numbers;
    Alcotest.test_case "keys lowercased" `Quick test_keys_lowercased;
    Alcotest.test_case "CRLF line endings" `Quick test_crlf_line_endings;
    Alcotest.test_case "set names valid" `Quick test_set_name_valid;
    Alcotest.test_case "set names invalid" `Quick test_set_name_invalid;
    Alcotest.test_case "set name classify" `Quick test_set_name_classify;
    Alcotest.test_case "set name canonical" `Quick test_set_name_canonical;
    Alcotest.test_case "attr make" `Quick test_attr_make;
    QCheck_alcotest.to_alcotest reader_never_raises ]
