(* Tests for rz_stats: BGPq4 compatibility classifier and the Section-4
   characterization computations on crafted inputs. *)
module Usage = Rz_stats.Usage
module Bgpq4 = Rz_stats.Bgpq4_compat
module Ast = Rz_policy.Ast
module Db = Rz_irr.Db

let rule text =
  match Rz_policy.Parser.parse_rule ~direction:`Import ~multiprotocol:false text with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_bgpq4_compatible () =
  List.iter
    (fun text ->
      Alcotest.(check bool) text true (Bgpq4.rule_compatible (rule text)))
    [ "from AS1 accept ANY";
      "from AS1 accept AS2";
      "from AS1 accept AS-FOO";
      "from AS1 accept RS-BAR^+";
      "from AS1 accept { 10.0.0.0/8^16-24 }";
      "from AS1 accept PeerAS" ]

let test_bgpq4_incompatible () =
  List.iter
    (fun text ->
      Alcotest.(check bool) text false (Bgpq4.rule_compatible (rule text)))
    [ "from AS1 accept <^AS1$>";
      "from AS1 accept community(65535:666)";
      "from AS1 accept ANY AND NOT { 10.0.0.0/8 }";
      "from AS1 accept NOT AS2";
      "from AS1 accept FLTR-X";
      "from AS1 accept fltr-martian";
      "from AS1 accept ANY REFINE from AS1 accept AS2";
      "from AS1 accept ANY EXCEPT from AS1 accept AS2" ]

let fixture_dumps =
  [ ( "RIPE",
      "aut-num: AS1\n\
       import: from AS2 accept AS-CONE\n\
       import: from AS3 accept <^AS3+$>\n\
       export: to AS2 announce RS-NETS\n\n\
       aut-num: AS2\n\n\
       as-set: AS-CONE\nmembers: AS1, AS-SUB\n\n\
       as-set: AS-SUB\nmembers: AS9\n\n\
       as-set: AS-UNUSED\n\n\
       route-set: RS-NETS\nmembers: 192.0.2.0/24\n\n\
       route: 192.0.2.0/24\norigin: AS1\nmnt-by: MNT-A\n\n\
       route: 198.51.100.0/24\norigin: AS1\nmnt-by: MNT-A\n" );
    ( "RADB",
      "route: 192.0.2.0/24\norigin: AS1\nmnt-by: MNT-B\n\n\
       route: 192.0.2.0/24\norigin: AS7\nmnt-by: MNT-C\n" ) ]

let usage = lazy (Usage.compute ~dumps:fixture_dumps (Db.of_dumps fixture_dumps))

let test_table1 () =
  let u = Lazy.force usage in
  Alcotest.(check int) "two rows" 2 (List.length u.table1);
  let ripe = List.find (fun (r : Usage.table1_row) -> r.irr = "RIPE") u.table1 in
  Alcotest.(check int) "ripe aut-nums" 2 ripe.n_aut_num;
  Alcotest.(check int) "ripe routes" 2 ripe.n_route;
  Alcotest.(check int) "ripe imports" 2 ripe.n_import;
  Alcotest.(check int) "ripe exports" 1 ripe.n_export;
  let radb = List.find (fun (r : Usage.table1_row) -> r.irr = "RADB") u.table1 in
  Alcotest.(check int) "radb routes (pre-dedup)" 2 radb.n_route

let test_rules_per_aut_num () =
  let u = Lazy.force usage in
  Alcotest.(check (list (pair int int))) "rule counts" [ (1, 3); (2, 0) ] u.rules_per_aut_num;
  (* AS1 has one BGPq4-incompatible rule (the regex) *)
  Alcotest.(check (list (pair int int))) "bgpq4 counts" [ (1, 2); (2, 0) ]
    u.bgpq4_rules_per_aut_num

let test_table2 () =
  let u = Lazy.force usage in
  let t2 = u.table2 in
  Alcotest.(check int) "defined aut-num" 2 t2.defined_aut_num;
  Alcotest.(check int) "defined as-set" 3 t2.defined_as_set;
  Alcotest.(check int) "defined route-set" 1 t2.defined_route_set;
  (* referenced: AS2 and AS3 in peerings; AS3 (regex) in filters *)
  Alcotest.(check int) "peering aut-nums" 2 t2.ref_peering_aut_num;
  Alcotest.(check int) "filter aut-nums" 1 t2.ref_filter_aut_num;
  Alcotest.(check int) "overall aut-nums" 2 t2.ref_overall_aut_num;
  Alcotest.(check int) "filter as-sets" 1 t2.ref_filter_as_set;
  Alcotest.(check int) "filter route-sets" 1 t2.ref_filter_route_set

let test_route_stats () =
  let u = Lazy.force usage in
  let rs = u.route_stats in
  Alcotest.(check int) "raw objects" 4 rs.n_objects;
  Alcotest.(check int) "unique pairs" 3 rs.n_prefix_origin;
  Alcotest.(check int) "unique prefixes" 2 rs.n_prefixes;
  Alcotest.(check int) "multi-object prefixes" 1 rs.multi_object_prefixes;
  Alcotest.(check int) "multi-origin prefixes" 1 rs.multi_origin_prefixes;
  Alcotest.(check int) "multi-maintainer prefixes" 1 rs.multi_maintainer_prefixes

let test_as_set_stats () =
  let u = Lazy.force usage in
  let s = u.as_set_stats in
  Alcotest.(check int) "n sets" 3 s.n_sets;
  Alcotest.(check int) "empty" 1 s.empty;
  Alcotest.(check int) "singleton" 1 s.singleton (* AS-SUB *);
  Alcotest.(check int) "recursive" 1 s.recursive (* AS-CONE *);
  Alcotest.(check int) "loops" 0 s.with_loop

let test_filter_kinds_and_peerings () =
  let u = Lazy.force usage in
  Alcotest.(check (float 1e-9)) "all peerings simple" 1.0 u.peering_simple_fraction;
  Alcotest.(check int) "as-set filters" 1 (List.assoc "as-set" u.filter_kind_histogram);
  Alcotest.(check int) "regex filters" 1 (List.assoc "as-path-regex" u.filter_kind_histogram);
  Alcotest.(check int) "route-set filters" 1 (List.assoc "route-set" u.filter_kind_histogram)

let test_error_stats () =
  let dumps = [ ("X", "as-set: BAD\nmembers: AS1\n\naut-num: AS5\nimport: from accept ANY\n") ] in
  let u = Usage.compute ~dumps (Db.of_dumps dumps) in
  Alcotest.(check int) "invalid as-set name" 1 u.error_stats.invalid_as_set_names;
  Alcotest.(check bool) "syntax errors" true (u.error_stats.syntax_errors >= 1)

let test_ccdf_rules () =
  let ccdf = Usage.ccdf_rules [ (1, 0); (2, 0); (3, 5); (4, 10) ] in
  Alcotest.(check (float 1e-9)) "P(>=0)" 1.0 (List.assoc 0 ccdf);
  Alcotest.(check (float 1e-9)) "P(>=5)" 0.5 (List.assoc 5 ccdf);
  Alcotest.(check (float 1e-9)) "P(>=10)" 0.25 (List.assoc 10 ccdf)

let test_loop_and_depth_stats () =
  let dumps =
    [ ("X",
       "as-set: AS-A\nmembers: AS-B\n\nas-set: AS-B\nmembers: AS-A\n\n\
        as-set: AS-D1\nmembers: AS-D2\n\nas-set: AS-D2\nmembers: AS-D3\n\n\
        as-set: AS-D3\nmembers: AS-D4\n\nas-set: AS-D4\nmembers: AS-D5\n\n\
        as-set: AS-D5\nmembers: AS1\n") ]
  in
  let u = Usage.compute ~dumps (Db.of_dumps dumps) in
  Alcotest.(check int) "loops counted" 2 u.as_set_stats.with_loop;
  Alcotest.(check int) "depth >= 5" 1 u.as_set_stats.depth_5_plus

let test_coverage () =
  let dumps =
    [ ("HIGH", "aut-num: AS1\n\nroute: 192.0.2.0/24\norigin: AS1\n");
      ("LOW",
       "aut-num: AS1\n\nroute: 192.0.2.0/24\norigin: AS1\n\nroute: 198.51.100.0/24\norigin: AS2\n") ]
  in
  let db = Db.of_dumps dumps in
  let c = Rz_stats.Coverage.compute ~table1:(Usage.compute ~dumps db).table1 db in
  (* dedup drops LOW's duplicates: 3 raw routes, 2 owned *)
  Alcotest.(check int) "shadowed" 1 c.shadowed_routes;
  let find irr = List.find_opt (fun (r : Rz_stats.Coverage.row) -> r.irr = irr) c.rows in
  (match find "HIGH" with
   | Some r ->
     Alcotest.(check int) "HIGH owns the aut-num" 1 r.aut_nums;
     Alcotest.(check int) "HIGH owns its route" 1 r.routes
   | None -> Alcotest.fail "HIGH row missing... (not in priority order)");
  ignore (find "LOW")

(* ---- Section 4 differential: one scan against the reference reader ---- *)

(* Table 1 rows, route-object stats and the shadowed count, recounted the
   long way from [Reader.parse_string]'s objects and the reference
   [Db.of_dumps] chain. *)
let reference_section4 dumps =
  let is_route (o : Rz_rpsl.Obj.t) = o.cls = "route" || o.cls = "route6" in
  let parsed =
    List.map (fun (irr, text) -> (irr, text, (Rz_rpsl.Reader.parse_string text).objects)) dumps
  in
  let table1 =
    List.map
      (fun (irr, text, objects) ->
        let count pred = List.length (List.filter pred objects) in
        let attrs keys =
          List.length
            (List.filter
               (fun (a : Rz_rpsl.Attr.t) -> List.mem a.key keys)
               (List.concat_map (fun (o : Rz_rpsl.Obj.t) -> o.attrs) objects))
        in
        (irr, String.length text, count (fun o -> o.cls = "aut-num"), count is_route,
         attrs [ "import"; "mp-import" ], attrs [ "export"; "mp-export" ]))
      parsed
  in
  let all = List.concat_map (fun (_, _, objects) -> objects) parsed in
  (* (prefix, origin, mnt-by) of every well-formed raw route object *)
  let routes =
    List.filter_map
      (fun (o : Rz_rpsl.Obj.t) ->
        match (Rz_net.Prefix.of_string o.name, Rz_rpsl.Obj.value o "origin") with
        | Ok prefix, Some origin when is_route o ->
          Result.to_option (Rz_net.Asn.of_string origin)
          |> Option.map (fun origin ->
                 ( Rz_net.Prefix.to_string prefix,
                   origin,
                   Option.value ~default:"" (Rz_rpsl.Obj.value o "mnt-by") ))
        | _ -> None)
      all
  in
  let uniq l = List.length (List.sort_uniq compare l) in
  let prefixes = List.sort_uniq compare (List.map (fun (p, _, _) -> p) routes) in
  let groups = List.map (fun p -> List.filter (fun (q, _, _) -> q = p) routes) prefixes in
  let multi f = List.length (List.filter (fun g -> uniq (List.map f g) > 1) groups) in
  let route_stats =
    [ List.length routes;
      uniq (List.map (fun (p, o, _) -> (p, o)) routes);
      List.length prefixes;
      List.length (List.filter (fun g -> List.length g > 1) groups);
      multi (fun (_, o, _) -> o);
      multi (fun (_, _, m) -> m) ]
  in
  let shadowed =
    List.length (List.filter is_route all) - Rz_ir.Ir.n_route_objs (Db.ir (Db.of_dumps dumps))
  in
  (table1, route_stats, shadowed)

let product_section4 dumps =
  let db = Rz_ingest.Ingest.db_of_dumps dumps in
  let u = Usage.compute ~dumps db in
  let rs = u.route_stats in
  ( List.map
      (fun (r : Usage.table1_row) ->
        (r.irr, r.size_bytes, r.n_aut_num, r.n_route, r.n_import, r.n_export))
      u.table1,
    [ rs.n_objects; rs.n_prefix_origin; rs.n_prefixes; rs.multi_object_prefixes;
      rs.multi_origin_prefixes; rs.multi_maintainer_prefixes ],
    (Rz_stats.Coverage.compute ~table1:u.table1 db).shadowed_routes )

let test_section4_differential () =
  let quick =
    (Rpslyzer.Pipeline.build_synthetic
       ~topo_params:
         { Rz_topology.Gen.default_params with n_tier1 = 4; n_mid = 40; n_stub = 160 }
       ())
      .dumps
  in
  let corrupted, report =
    Rz_fault.Fault.corrupt_dumps (Rz_fault.Fault.plan ~seed:7 ~rate:0.1 ()) quick
  in
  Alcotest.(check bool) "faults injected" true (Rz_fault.Fault.total_faults report > 0);
  let row = Alcotest.(pair string (pair int (pair int (pair int (pair int int))))) in
  let nest (irr, size, aut, route, imp, exp) = (irr, (size, (aut, (route, (imp, exp))))) in
  List.iter
    (fun (label, dumps) ->
      let ref_t1, ref_rs, ref_shadowed = reference_section4 dumps in
      let t1, rs, shadowed = product_section4 dumps in
      Alcotest.(check (list row)) (label ^ ": Table 1") (List.map nest ref_t1) (List.map nest t1);
      Alcotest.(check (list int)) (label ^ ": route stats") ref_rs rs;
      Alcotest.(check int) (label ^ ": shadowed routes") ref_shadowed shadowed)
    [ ("quick world", quick); ("corrupted", corrupted) ]

let suite =
  [ Alcotest.test_case "bgpq4 compatible" `Quick test_bgpq4_compatible;
    Alcotest.test_case "bgpq4 incompatible" `Quick test_bgpq4_incompatible;
    Alcotest.test_case "table 1" `Quick test_table1;
    Alcotest.test_case "rules per aut-num" `Quick test_rules_per_aut_num;
    Alcotest.test_case "table 2" `Quick test_table2;
    Alcotest.test_case "route stats" `Quick test_route_stats;
    Alcotest.test_case "as-set stats" `Quick test_as_set_stats;
    Alcotest.test_case "filter kinds / peerings" `Quick test_filter_kinds_and_peerings;
    Alcotest.test_case "error stats" `Quick test_error_stats;
    Alcotest.test_case "ccdf rules" `Quick test_ccdf_rules;
    Alcotest.test_case "loop and depth stats" `Quick test_loop_and_depth_stats;
    Alcotest.test_case "coverage" `Quick test_coverage;
    Alcotest.test_case "section 4 differential" `Quick test_section4_differential ]
