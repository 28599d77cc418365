(* Tests for the IRRd-style query protocol (Rz_irr.Irrd_query), and its
   sessions through the service path (Rz_serve.Serve.session_lines). *)
module Q = Rz_irr.Irrd_query
module Db = Rz_irr.Db
module Serve = Rz_serve.Serve

let fixture =
  "aut-num: AS65001\n\
   as-name: EXAMPLE\n\
   import: from AS65002 accept AS-CONE\n\
   export: to AS65002 announce AS65001\n\
   mnt-by: MNT-EX\n\
   \n\
   as-set: AS-CONE\n\
   members: AS65001, AS-SUB\n\
   \n\
   as-set: AS-SUB\n\
   members: AS65003\n\
   \n\
   route-set: RS-NETS\n\
   members: 192.0.2.0/24^+, AS65003\n\
   \n\
   route: 192.0.2.0/24\norigin: AS65001\n\
   \n\
   route: 198.51.100.0/24\norigin: AS65001\n\
   \n\
   route: 198.51.100.0/25\norigin: AS65003\n\
   \n\
   route6: 2001:db8::/32\norigin: AS65001\n"

let db = lazy (Db.of_dumps [ ("TEST", fixture) ])

let expect_data query check =
  match Q.answer (Lazy.force db) query with
  | Q.Data payload -> check payload
  | other -> Alcotest.failf "%s: expected data, got %s" query (Q.render other)

let test_g_origin_v4 () =
  expect_data "!gAS65001" (fun payload ->
      Alcotest.(check string) "v4 prefixes" "192.0.2.0/24 198.51.100.0/24" payload)

let test_6_origin_v6 () =
  expect_data "!6AS65001" (fun payload ->
      Alcotest.(check string) "v6 prefixes" "2001:db8::/32" payload)

let test_g_no_routes () =
  Alcotest.(check bool) "unknown origin -> D" true
    (Q.answer (Lazy.force db) "!gAS64999" = Q.Not_found_key)

let test_i_direct () =
  expect_data "!iAS-CONE" (fun payload ->
      Alcotest.(check string) "direct members" "AS65001 AS-SUB" payload)

let test_i_recursive () =
  expect_data "!iAS-CONE,1" (fun payload ->
      Alcotest.(check string) "flattened" "AS65001 AS65003" payload)

let test_i_route_set_recursive () =
  expect_data "!iRS-NETS,1" (fun payload ->
      Alcotest.(check bool) "has prefix with op" true
        (Rz_util.Strings.split_on_string ~sep:"192.0.2.0/24^+" payload |> List.length > 1);
      Alcotest.(check bool) "asn member expanded" true
        (Rz_util.Strings.split_on_string ~sep:"198.51.100.0/25" payload |> List.length > 1))

let test_i_missing () =
  Alcotest.(check bool) "missing set -> D" true
    (Q.answer (Lazy.force db) "!iAS-NOWHERE" = Q.Not_found_key)

let test_m_aut_num () =
  expect_data "!maut-num,AS65001" (fun payload ->
      Alcotest.(check bool) "renders rules" true
        (Rz_util.Strings.split_on_string ~sep:"import:" payload |> List.length > 1);
      Alcotest.(check bool) "renders source" true
        (Rz_util.Strings.split_on_string ~sep:"source:" payload |> List.length > 1))

let test_m_route () =
  expect_data "!mroute,192.0.2.0/24" (fun payload ->
      Alcotest.(check bool) "origin present" true
        (Rz_util.Strings.split_on_string ~sep:"AS65001" payload |> List.length > 1))

let test_m_bad_class () =
  match Q.answer (Lazy.force db) "!mperson,foo" with
  | Q.Error_resp _ -> ()
  | other -> Alcotest.failf "expected error, got %s" (Q.render other)

let test_r_exact_and_covering () =
  expect_data "!r198.51.100.0/25" (fun payload ->
      Alcotest.(check bool) "exact match" true
        (Rz_util.Strings.split_on_string ~sep:"AS65003" payload |> List.length > 1));
  expect_data "!r198.51.100.0/25,l" (fun payload ->
      (* covering includes the /24 by AS65001 *)
      Alcotest.(check bool) "covering includes /24" true
        (Rz_util.Strings.split_on_string ~sep:"198.51.100.0/24 AS65001" payload
         |> List.length > 1));
  expect_data "!r198.51.100.0/25,o" (fun payload ->
      Alcotest.(check string) "origins only" "AS65003" payload)

let test_a_aggregated_prefixes () =
  expect_data "!aAS-CONE" (fun payload ->
      (* AS65001's /24s and AS65003's /25 aggregate: the /25 is inside
         198.51.100.0/24 so only the two /24s remain *)
      Alcotest.(check string) "aggregated" "192.0.2.0/24 198.51.100.0/24" payload);
  expect_data "!a6AS-CONE" (fun payload ->
      Alcotest.(check string) "v6" "2001:db8::/32" payload);
  Alcotest.(check bool) "unknown set" true
    (Q.answer (Lazy.force db) "!aAS-NOWHERE" = Q.Not_found_key)

(* A cone whose routes aggregate only across origins: no member's own
   routes merge with each other, and AS64599, outside the cone, holds the
   /24 that would close the last hole. *)
let cascade_fixture =
  "as-set: AS-CASCADE\n\
   members: AS64510, AS64511, AS64512, AS64513, AS-CASCADE-SUB\n\
   \n\
   as-set: AS-CASCADE-SUB\n\
   members: AS64514\n\
   \n\
   route: 100.64.0.0/24\norigin: AS64510\n\n\
   route: 100.64.1.0/24\norigin: AS64511\n\n\
   route: 100.64.2.0/24\norigin: AS64512\n\n\
   route: 100.64.3.0/24\norigin: AS64513\n\n\
   route: 100.64.2.128/25\norigin: AS64513\n\n\
   route: 100.64.4.0/24\norigin: AS64514\n\n\
   route: 100.64.5.0/25\norigin: AS64510\n\n\
   route: 100.64.5.128/25\norigin: AS64511\n\n\
   route: 100.64.6.0/24\norigin: AS64512\n\n\
   route: 100.64.7.0/24\norigin: AS64599\n\n\
   route6: 2001:db8::/64\norigin: AS64510\n\n\
   route6: 2001:db8:0:1::/64\norigin: AS64511\n\n\
   route6: 2001:db8:0:2::/63\norigin: AS64512\n\n\
   route6: 2001:db8:0:4::/64\norigin: AS64513\n\n\
   route6: 2001:db8:1::/128\norigin: AS64514\n\n\
   route6: 2001:db8:1::1/128\norigin: AS64510\n"

let test_a_cascade_across_origins () =
  let db = Db.of_dumps [ ("TEST", cascade_fixture) ] in
  let payload query =
    match Q.answer db query with
    | Q.Data payload -> payload
    | other -> Alcotest.failf "%s: expected data, got %s" query (Q.render other)
  in
  Alcotest.(check string) "one origin alone does not merge" "100.64.0.0/24 100.64.5.0/25"
    (payload "!gAS64510");
  Alcotest.(check string) "!a" "100.64.0.0/22 100.64.4.0/23 100.64.6.0/24"
    (payload "!aAS-CASCADE");
  Alcotest.(check string) "!a6" "2001:db8::/62 2001:db8:0:4::/64 2001:db8:1::/127"
    (payload "!a6AS-CASCADE");
  Alcotest.(check string) "!a framed"
    "A41\n100.64.0.0/22 100.64.4.0/23 100.64.6.0/24\nC\n"
    (Q.render (Q.answer db "!aAS-CASCADE"))

let test_plain_whois () =
  expect_data "AS-CONE" (fun payload ->
      Alcotest.(check bool) "as-set block" true
        (Rz_util.Strings.split_on_string ~sep:"as-set:" payload |> List.length > 1));
  expect_data "192.0.2.0/24" (fun payload ->
      Alcotest.(check bool) "route block" true
        (Rz_util.Strings.split_on_string ~sep:"route:" payload |> List.length > 1));
  Alcotest.(check bool) "unknown -> D" true
    (Q.answer (Lazy.force db) "WHAT-IS-THIS" = Q.Not_found_key)

(* A plain lookup of an IPv6 prefix renders the object as the registry
   holds it, [route6:], the same block [!mroute6] answers. *)
let test_plain_whois_v6_route () =
  let want = "route6:         2001:db8::/32\norigin:         AS65001" in
  expect_data "2001:db8::/32" (Alcotest.(check string) "plain v6 route" want);
  expect_data "!mroute6,2001:db8::/32" (Alcotest.(check string) "!mroute6" want)

let test_framing () =
  Alcotest.(check string) "no data" "C\n" (Q.render Q.No_data);
  Alcotest.(check string) "not found" "D\n" (Q.render Q.Not_found_key);
  Alcotest.(check string) "error" "F nope\n" (Q.render (Q.Error_resp "nope"));
  Alcotest.(check string) "data framing" "A5\nhello\nC\n" (Q.render (Q.Data "hello"));
  Alcotest.(check string) "quit renders empty" "" (Q.render Q.Quit)

let test_session () =
  let transcript =
    Serve.session_lines (Lazy.force db) [ "!nbgpq4"; "!gAS65001"; "!q"; "!gAS65001" ]
  in
  (* the !n ack, then one data block; nothing after !q *)
  Alcotest.(check bool) "starts with ack" true
    (String.length transcript > 2 && String.sub transcript 0 2 = "C\n");
  Alcotest.(check int) "one data block only" 2
    (List.length (Rz_util.Strings.split_on_string ~sep:"192.0.2.0/24" transcript))

let test_unsupported_bang () =
  match Q.answer (Lazy.force db) "!zwhatever" with
  | Q.Error_resp _ -> ()
  | other -> Alcotest.failf "expected error, got %s" (Q.render other)

(* ---- hostile queries: every answer must be a protocol response, never
   an exception escaping into the session loop ---- *)

let expect_fd label query =
  match Q.answer (Lazy.force db) query with
  | Q.Error_resp _ | Q.Not_found_key | Q.No_data -> ()
  | other -> Alcotest.failf "%s: expected F/D/C, got %s" label (Q.render other)

let test_malformed_garbage_bytes () =
  expect_fd "nul garbage" "\x00\x01\xff\xfebinary";
  expect_fd "nul after bang" "!\x00\x01\x02";
  expect_fd "bang g garbage" "!g\x00\xff not an asn";
  expect_fd "high bytes" "\xc3\xa9\xc2\xa0\xe2\x80\x8b"

let test_malformed_overlong_set_name () =
  expect_fd "overlong !i" ("!i" ^ String.make 100_000 'A');
  expect_fd "overlong !i recursive" ("!iAS-" ^ String.make 100_000 'X' ^ ",1");
  expect_fd "overlong !a" ("!a" ^ String.make 50_000 'B')

let test_malformed_r_prefixes () =
  expect_fd "not a prefix" "!rnot-a-prefix";
  expect_fd "octets out of range" "!r999.999.999.999/99";
  expect_fd "negative length" "!r192.0.2.0/-1";
  expect_fd "lone slash" "!r/";
  expect_fd "empty with mode" "!r,l";
  expect_fd "v6 garbage" "!r:::::/200,o"

let test_malformed_empty_and_whitespace () =
  Alcotest.(check bool) "empty query -> C" true (Q.answer (Lazy.force db) "" = Q.No_data);
  Alcotest.(check bool) "whitespace query -> C" true
    (Q.answer (Lazy.force db) "   \t  " = Q.No_data);
  expect_fd "lone bang" "!";
  expect_fd "bang i no arg" "!i";
  expect_fd "bang m no comma" "!maut-num"

let test_malformed_session_survives () =
  (* a hostile session never raises and produces one framed response per
     query line *)
  let transcript =
    Serve.session_lines (Lazy.force db)
      [ "\x00garbage"; "!r999.999.999.999/99"; "!i" ^ String.make 10_000 'Z'; "" ]
  in
  Alcotest.(check bool) "non-empty transcript" true (String.length transcript > 0)

let suite =
  [ Alcotest.test_case "!g origin v4" `Quick test_g_origin_v4;
    Alcotest.test_case "!6 origin v6" `Quick test_6_origin_v6;
    Alcotest.test_case "!g unknown" `Quick test_g_no_routes;
    Alcotest.test_case "!i direct" `Quick test_i_direct;
    Alcotest.test_case "!i recursive" `Quick test_i_recursive;
    Alcotest.test_case "!i route-set recursive" `Quick test_i_route_set_recursive;
    Alcotest.test_case "!i missing" `Quick test_i_missing;
    Alcotest.test_case "!m aut-num" `Quick test_m_aut_num;
    Alcotest.test_case "!m route" `Quick test_m_route;
    Alcotest.test_case "!m bad class" `Quick test_m_bad_class;
    Alcotest.test_case "!r exact/covering/origins" `Quick test_r_exact_and_covering;
    Alcotest.test_case "!a aggregated prefixes" `Quick test_a_aggregated_prefixes;
    Alcotest.test_case "!a cascades across origins" `Quick test_a_cascade_across_origins;
    Alcotest.test_case "plain whois" `Quick test_plain_whois;
    Alcotest.test_case "plain whois v6 route" `Quick test_plain_whois_v6_route;
    Alcotest.test_case "framing" `Quick test_framing;
    Alcotest.test_case "session" `Quick test_session;
    Alcotest.test_case "unsupported !x" `Quick test_unsupported_bang;
    Alcotest.test_case "malformed: garbage bytes" `Quick test_malformed_garbage_bytes;
    Alcotest.test_case "malformed: overlong set names" `Quick test_malformed_overlong_set_name;
    Alcotest.test_case "malformed: !r bad prefixes" `Quick test_malformed_r_prefixes;
    Alcotest.test_case "malformed: empty/whitespace" `Quick test_malformed_empty_and_whitespace;
    Alcotest.test_case "malformed: session survives" `Quick test_malformed_session_survives ]
