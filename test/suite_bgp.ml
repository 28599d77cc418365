(* Tests for rz_bgp: route lines, path handling, table dumps. *)
module Route = Rz_bgp.Route
module Table_dump = Rz_bgp.Table_dump

let p = Rz_net.Prefix.of_string_exn

let test_make_and_line () =
  let r = Route.make (p "192.0.2.0/24") [ 3257; 1299; 6939 ] in
  Alcotest.(check string) "line" "192.0.2.0/24|3257 1299 6939" (Route.to_line r)

let test_line_roundtrip () =
  List.iter
    (fun line ->
      match Route.of_line line with
      | Ok r -> Alcotest.(check string) line line (Route.to_line r)
      | Error e -> Alcotest.fail e)
    [ "192.0.2.0/24|3257 1299 6939";
      "2001:db8::/32|1 2 3";
      "10.0.0.0/8|65000";
      "192.0.2.0/24|1 {2,3} 4" ]

let test_line_errors () =
  let bad s = Alcotest.(check bool) s true (Result.is_error (Route.of_line s)) in
  bad "192.0.2.0/24";
  bad "banana|1 2";
  bad "192.0.2.0/24|one two";
  bad "192.0.2.0/24|1 {2,x}"

let test_as_set_detection () =
  let plain = Route.make (p "10.0.0.0/8") [ 1; 2 ] in
  Alcotest.(check bool) "plain" false (Route.contains_as_set plain);
  match Route.of_line "10.0.0.0/8|1 {2,3}" with
  | Ok r -> Alcotest.(check bool) "with set" true (Route.contains_as_set r)
  | Error e -> Alcotest.fail e

let test_origin () =
  let r = Route.make (p "10.0.0.0/8") [ 1; 2; 3 ] in
  Alcotest.(check (option int)) "origin is last" (Some 3) (Route.origin r)

let test_dedup_path () =
  let r = Route.make (p "10.0.0.0/8") [ 1; 2; 2; 2; 3; 3 ] in
  Alcotest.(check (list int)) "prepending removed" [ 1; 2; 3 ] (Route.dedup_path r)

let test_table_dump_roundtrip () =
  let dump =
    { Table_dump.collector = "rrc00";
      routes =
        [ Route.make (p "192.0.2.0/24") [ 1; 2 ]; Route.make (p "2001:db8::/32") [ 3; 4 ] ] }
  in
  let text = Table_dump.to_string dump in
  match Table_dump.of_string ~collector:"rrc00" text with
  | Ok parsed ->
    Alcotest.(check int) "route count" 2 (List.length parsed.routes);
    Alcotest.(check bool) "routes equal" true
      (List.for_all2 Route.equal dump.routes parsed.routes)
  | Error e -> Alcotest.fail e

let test_table_dump_comments_blanks () =
  let text = "# header\n\n192.0.2.0/24|1 2\n   \n# trailing\n" in
  (match Table_dump.of_string ~collector:"x" text with
   | Ok parsed -> Alcotest.(check int) "one route" 1 (List.length parsed.routes)
   | Error e -> Alcotest.fail e);
  (* a malformed line fails the whole dump *)
  Alcotest.(check bool) "strict fails" true
    (Result.is_error
       (Table_dump.of_string ~collector:"x" "192.0.2.0/24|1 2\nbroken line\n198.51.100.0/24|3\n"))

let test_table_dump_save_load () =
  let dump =
    { Table_dump.collector = "rrc01"; routes = [ Route.make (p "10.0.0.0/8") [ 9; 8 ] ] }
  in
  let path = Filename.temp_file "dump" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Table_dump.to_string dump));
  (match Table_dump.load ~collector:"rrc01" path with
   | Ok loaded -> Alcotest.(check int) "loaded" 1 (List.length loaded.routes)
   | Error e -> Alcotest.fail e);
  Sys.remove path

let route_line_roundtrip =
  QCheck.Test.make ~name:"route line round-trips" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair (int_range 0 0xFFFFFF) (list_size (int_range 1 8) (int_range 1 100000))))
    (fun (addr24, path) ->
      let r = Route.make (Rz_net.Prefix.v4 (addr24 lsl 8) 24) path in
      match Route.of_line (Route.to_line r) with
      | Ok r2 -> Route.equal r r2
      | Error _ -> false)

let suite =
  [ Alcotest.test_case "make and line" `Quick test_make_and_line;
    Alcotest.test_case "line roundtrip" `Quick test_line_roundtrip;
    Alcotest.test_case "line errors" `Quick test_line_errors;
    Alcotest.test_case "as_set detection" `Quick test_as_set_detection;
    Alcotest.test_case "origin" `Quick test_origin;
    Alcotest.test_case "dedup path" `Quick test_dedup_path;
    Alcotest.test_case "table dump roundtrip" `Quick test_table_dump_roundtrip;
    Alcotest.test_case "table dump comments" `Quick test_table_dump_comments_blanks;
    Alcotest.test_case "table dump save/load" `Quick test_table_dump_save_load;
    QCheck_alcotest.to_alcotest route_line_roundtrip ]
