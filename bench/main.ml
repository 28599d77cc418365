(* Paper-evaluation report: regenerates every table and figure of the
   paper's evaluation over the synthetic world and prints
   paper-vs-measured values. It times nothing: all timing is perfbench's
   (perfbench/run.py).

   Run with: dune exec bench/main.exe -- [--quick | --big] [--csv DIR]
   [--metrics FILE]. The exact accounting of the verify, ingest, stream
   and serve jobs on the --quick world is pinned in
   test/suite_accounting.ml; their timing is perfbench's. *)

module Table = Rz_util.Table
module Stats_util = Rz_util.Stats_util
module Aggregate = Rz_verify.Aggregate

(* --csv DIR also writes each figure's raw data series for plotting;
   --metrics FILE enables the Rz_obs registry for the whole run and writes
   its JSON snapshot (phase timings, counters, latency quantiles). *)
let quick, big, csv_dir, metrics_path =
  let quick = ref false and big = ref false in
  let csv_dir = ref None and metrics_path = ref None in
  Arg.parse
    (Arg.align
       [ ("--quick", Arg.Set quick, " Smoke-size world: 4 tier-1, 40 transit, 160 stub ASes");
         ("--big", Arg.Set big, " Large world: 8 tier-1, 400 transit, 3000 stub ASes");
         ("--csv", Arg.String (fun d -> csv_dir := Some d),
          "DIR Also write each figure's raw data series to DIR");
         ("--metrics", Arg.String (fun f -> metrics_path := Some f),
          "FILE Write an Rz_obs JSON snapshot after the headline verification") ])
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "Usage: main.exe [--quick | --big] [--csv DIR] [--metrics FILE]";
  (!quick, !big, !csv_dir, !metrics_path)

let () = if metrics_path <> None then Rpslyzer.Obs.enable ()

let write_csv name header rows =
  match csv_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc = open_out (Filename.concat dir (name ^ ".csv")) in
    output_string oc (String.concat "," header ^ "\n");
    List.iter (fun row -> output_string oc (String.concat "," row ^ "\n")) rows;
    close_out oc;
    Printf.printf "(wrote %s/%s.csv: %d rows)\n" dir name (List.length rows)

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let pct = Table.pct
let fint = float_of_int

(* ------------------------------------------------------------------ *)
(* World construction (calibrated to the paper's population mixes)     *)
(* ------------------------------------------------------------------ *)

let topo_params =
  if quick then { Rz_topology.Gen.default_params with n_tier1 = 4; n_mid = 40; n_stub = 160 }
  else if big then { Rz_topology.Gen.default_params with n_tier1 = 8; n_mid = 400; n_stub = 3000 }
  else { Rz_topology.Gen.default_params with n_tier1 = 6; n_mid = 150; n_stub = 700 }

let irr_config = Rz_synthirr.Config.default

let world =
  let w = Rpslyzer.Pipeline.build_synthetic ~topo_params ~irr_config () in
  Printf.printf "world: %d ASes\n" (Rz_topology.Gen.n_ases w.topo);
  w

let usage = Rpslyzer.Pipeline.usage world

let agg, n_total_routes, n_excluded =
  let agg, `Total total, `Excluded excluded = Rpslyzer.Pipeline.verify world in
  Printf.printf "verified %s routes\n" (Table.commas total);
  (agg, total, excluded)

(* The snapshot is captured (and the file written) right here, straight
   after the headline generate -> parse -> lower -> db-build -> routegen
   -> verify pipeline: the later report sections re-run engine pieces ad
   hoc, which would detach verify.hops_total from the aggregate's hop
   count. The text rendering is printed as its own section at the end. *)
let metrics_snapshot =
  match metrics_path with
  | None -> None
  | Some path ->
    let snap = Rpslyzer.Obs.Registry.snapshot () in
    let json = Rpslyzer.Json.to_string (Rpslyzer.Obs.Registry.to_json snap) in
    let oc = open_out path in
    output_string oc json;
    output_char oc '\n';
    close_out oc;
    Printf.printf "(wrote metrics snapshot to %s)\n" path;
    Some snap

let metrics_section () =
  match metrics_snapshot with
  | None -> ()
  | Some snap ->
    section "Metrics (Rz_obs snapshot after the headline verification)";
    Printf.printf "verify.hops_total vs aggregate hops: %d / %d\n\n"
      (List.assoc "verify.hops_total" (Rpslyzer.Obs.Registry.counters snap))
      (Aggregate.n_hops agg);
    print_string (Rpslyzer.Obs.Registry.to_text snap)

(* ------------------------------------------------------------------ *)
(* Table 1                                                              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: IRRs used, grouped and ordered by priority";
  print_endline
    "(paper: 13 IRRs, 7,073 MiB total, 78,701 aut-nums, 3,367,914 routes —\n\
     \ shape target: RIPE largest, RADB most routes among non-authoritative,\n\
     \ LACNIC contributes zero import/export)";
  Table.print
    ~header:[ "IRR"; "SIZE (KiB)"; "aut-num"; "route"; "import"; "export" ]
    (List.map
       (fun (r : Rz_stats.Usage.table1_row) ->
         [ r.irr;
           Printf.sprintf "%.1f" (fint r.size_bytes /. 1024.);
           Table.commas r.n_aut_num;
           Table.commas r.n_route;
           Table.commas r.n_import;
           Table.commas r.n_export ])
       usage.table1
     @ [ [ "Total";
           Printf.sprintf "%.1f"
             (fint (List.fold_left (fun a (r : Rz_stats.Usage.table1_row) -> a + r.size_bytes) 0 usage.table1)
              /. 1024.);
           Table.commas
             (List.fold_left (fun a (r : Rz_stats.Usage.table1_row) -> a + r.n_aut_num) 0 usage.table1);
           Table.commas
             (List.fold_left (fun a (r : Rz_stats.Usage.table1_row) -> a + r.n_route) 0 usage.table1);
           Table.commas
             (List.fold_left (fun a (r : Rz_stats.Usage.table1_row) -> a + r.n_import) 0 usage.table1);
           Table.commas
             (List.fold_left (fun a (r : Rz_stats.Usage.table1_row) -> a + r.n_export) 0 usage.table1) ] ])

let table1_coverage () =
  section "Table 1 companion: post-merge registry contribution";
  print_endline
    "(the paper's priority merge means lower-priority registries are\n\
     \ shadowed; this shows who actually supplies each object after dedup)";
  let c = Rz_stats.Coverage.compute ~dumps:world.dumps world.db in
  Table.print
    ~header:[ "IRR"; "aut-num"; "as-set"; "route-set"; "route pairs" ]
    (List.map
       (fun (r : Rz_stats.Coverage.row) ->
         [ r.irr; string_of_int r.aut_nums; string_of_int r.as_sets;
           string_of_int r.route_sets; string_of_int r.routes ])
       c.rows);
  Printf.printf "\nroute objects shadowed by the priority merge: %s\n"
    (Table.commas c.shadowed_routes)

(* ------------------------------------------------------------------ *)
(* Figure 1                                                             *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  section "Figure 1: CCDF of rules per aut-num (all vs BGPq4-compatible)";
  write_csv "figure1_ccdf"
    [ "rules"; "p_all"; "p_bgpq4" ]
    (let all = Rz_stats.Usage.ccdf_rules usage.rules_per_aut_num in
     let bq_samples = List.map snd usage.bgpq4_rules_per_aut_num in
     List.map
       (fun (x, p_all) ->
         let p_b =
           match Stats_util.ccdf_at bq_samples [ x ] with
           | [ (_, p) ] -> p
           | _ -> 0.0
         in
         [ string_of_int x; Printf.sprintf "%.6f" p_all; Printf.sprintf "%.6f" p_b ])
       all);
  print_endline
    "(paper: 35.2% of aut-nums have zero rules -> P(>=1) = 64.8%; 10.9% have\n\
     \ >=10; 0.13% have >1000; the BGPq4-compatible series is quantitatively\n\
     \ similar to the all-rules series)";
  let xs = [ 1; 2; 5; 10; 20; 50; 100; 1000 ] in
  let all = Stats_util.ccdf_at (List.map snd usage.rules_per_aut_num) xs in
  let bq = Stats_util.ccdf_at (List.map snd usage.bgpq4_rules_per_aut_num) xs in
  Table.print
    ~header:[ "rules >="; "P(all rules)"; "P(bgpq4-compatible)" ]
    (List.map2
       (fun (x, fa) (_, fb) -> [ string_of_int x; pct fa; pct fb ])
       all bq);
  Printf.printf "\nzero-rule aut-nums: %s (paper 35.2%%)\n"
    (pct (Stats_util.fraction (fun (_, n) -> n = 0) usage.rules_per_aut_num));
  Printf.printf "simple peerings (single ASN or ANY): %s (paper 98.4%%)\n"
    (pct usage.peering_simple_fraction);
  Printf.printf "ASes whose rules are all BGPq4-compatible: %s (paper 94.5%%)\n"
    (pct usage.ases_bgpq4_only)

(* ------------------------------------------------------------------ *)
(* Table 2                                                              *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: objects defined and referenced in rules";
  print_endline
    "(paper: 78,701 / 53,268 / 24,460 / 342 / 203 defined; 60.4% of aut-nums\n\
     \ and 31.7% of as-sets referenced; route-sets referenced far less than\n\
     \ as-sets despite similar maintenance)";
  let t2 = usage.table2 in
  Table.print
    ~header:[ ""; "aut-num"; "as-set"; "route-set"; "peering-set"; "filter-set" ]
    [ [ "Defined"; Table.commas t2.defined_aut_num; Table.commas t2.defined_as_set;
        Table.commas t2.defined_route_set; Table.commas t2.defined_peering_set;
        Table.commas t2.defined_filter_set ];
      [ "Referenced overall"; Table.commas t2.ref_overall_aut_num;
        Table.commas t2.ref_overall_as_set; Table.commas t2.ref_overall_route_set;
        Table.commas t2.ref_overall_peering_set; Table.commas t2.ref_overall_filter_set ];
      [ "  in peering"; Table.commas t2.ref_peering_aut_num;
        Table.commas t2.ref_peering_as_set; "-"; Table.commas t2.ref_peering_peering_set; "-" ];
      [ "  in filter"; Table.commas t2.ref_filter_aut_num; Table.commas t2.ref_filter_as_set;
        Table.commas t2.ref_filter_route_set; "-"; Table.commas t2.ref_filter_filter_set ] ];
  Printf.printf "\nfilter shapes: %s\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) usage.filter_kind_histogram))

(* ------------------------------------------------------------------ *)
(* Section 4 prose statistics                                           *)
(* ------------------------------------------------------------------ *)

let section4_stats () =
  section "Section 4: route-object and as-set statistics";
  let rs = usage.route_stats in
  print_endline
    "(paper: 3,904,352 route objects / 3,367,914 pairs / 2,817,344 prefixes;\n\
     \ 24.7% of prefixes multi-object, of which 58.1% multi-origin; 67.3%\n\
     \ multi-maintainer)";
  Printf.printf "route objects %s, unique (prefix, origin) %s, unique prefixes %s\n"
    (Table.commas rs.n_objects) (Table.commas rs.n_prefix_origin) (Table.commas rs.n_prefixes);
  Printf.printf "multi-object prefixes: %s (%s of prefixes)\n"
    (Table.commas rs.multi_object_prefixes)
    (pct (fint rs.multi_object_prefixes /. fint rs.n_prefixes));
  Printf.printf "  of which multi-origin: %s (%s)\n"
    (Table.commas rs.multi_origin_prefixes)
    (pct (fint rs.multi_origin_prefixes /. fint (max 1 rs.multi_object_prefixes)));
  Printf.printf "  of which multi-maintainer: %s (%s)\n"
    (Table.commas rs.multi_maintainer_prefixes)
    (pct (fint rs.multi_maintainer_prefixes /. fint (max 1 rs.multi_object_prefixes)));
  let s = usage.as_set_stats in
  print_endline
    "\n(paper: 53,268 as-sets; 14.5% empty, 32.7% singleton, 1.4% >10k members,\n\
     \ 3 contain ANY, 25.5% recursive, of which 22.4% loop and 23.0% depth>=5)";
  Printf.printf "as-sets %d: empty %s, singleton %s, >10k %s, contains-ANY %d\n" s.n_sets
    (pct (fint s.empty /. fint s.n_sets))
    (pct (fint s.singleton /. fint s.n_sets))
    (pct (fint s.over_10k /. fint s.n_sets))
    s.contains_any;
  Printf.printf "recursive %s; of recursive: loops %s, depth>=5 %s\n"
    (pct (fint s.recursive /. fint s.n_sets))
    (pct (fint s.with_loop /. fint (max 1 s.recursive)))
    (pct (fint s.depth_5_plus /. fint (max 1 s.recursive)));
  let e = usage.error_stats in
  print_endline "\n(paper: 663 syntax errors, 12 invalid as-set names, 17 invalid route-set names)";
  Printf.printf "errors: %d syntax, %d invalid as-set names, %d invalid route-set names\n"
    e.syntax_errors e.invalid_as_set_names e.invalid_route_set_names

(* ------------------------------------------------------------------ *)
(* Figures 2-4                                                          *)
(* ------------------------------------------------------------------ *)

let hop_status_overview () =
  section "Hop-status overview (abstract's per-interconnection shares)";
  print_endline
    "(paper: 29.3% strict matches, 19.0% explained by special cases, 40.4%\n\
     \ unverifiable from the RPSL, rest unverified)";
  let c = Aggregate.overall agg in
  let total = fint (Aggregate.n_hops agg) in
  Table.print
    ~header:[ "status"; "hops"; "share" ]
    (List.map
       (fun (label, count) -> [ label; Table.commas count; pct (fint count /. total) ])
       (Aggregate.counts_classes c));
  Printf.printf "\nroutes examined: %s (excluded single-AS/AS_SET: %s)\n"
    (Table.commas n_total_routes) (Table.commas n_excluded)

let counts_row (c : Aggregate.counts) =
  List.map (fun (_, v) -> string_of_int v) (Aggregate.counts_classes c)

let counts_header = [ "verified"; "skipped"; "unrecorded"; "relaxed"; "safelisted"; "unverified" ]

let figure2 () =
  section "Figure 2: route verification status for each AS";
  write_csv "figure2_per_as"
    ([ "asn"; "direction" ] @ counts_header)
    (List.concat_map
       (fun (asn, imports, exports) ->
         [ (string_of_int asn :: "import" :: counts_row imports);
           (string_of_int asn :: "export" :: counts_row exports) ])
       (Aggregate.per_as_list agg));
  print_endline
    "(paper: 74.4% of ASes single-status; 14.2% all-verified, 51.6%\n\
     \ all-unrecorded, 0.34% all-relaxed, 6.9% all-safelisted; 30.9% of ASes\n\
     \ have >=1 special case; 0.03% have skips)";
  let s = Aggregate.per_as_summary agg in
  let f n = pct (fint n /. fint s.n_ases) in
  Table.print
    ~header:[ "metric"; "ASes"; "share" ]
    [ [ "observed ASes"; string_of_int s.n_ases; "100%" ];
      [ "single status (both directions)"; string_of_int s.all_same_status; f s.all_same_status ];
      [ "  all verified"; string_of_int s.all_verified; f s.all_verified ];
      [ "  all unrecorded"; string_of_int s.all_unrecorded; f s.all_unrecorded ];
      [ "  all relaxed"; string_of_int s.all_relaxed; f s.all_relaxed ];
      [ "  all safelisted"; string_of_int s.all_safelisted; f s.all_safelisted ];
      [ "  all unverified"; string_of_int s.all_unverified; f s.all_unverified ];
      [ ">=1 unrecorded"; string_of_int s.with_unrecorded; f s.with_unrecorded ];
      [ ">=1 special case"; string_of_int s.with_special; f s.with_special ];
      [ ">=1 skipped"; string_of_int s.with_skips; f s.with_skips ] ]

let figure3 () =
  section "Figure 3: route verification status for each AS pair";
  write_csv "figure3_per_pair"
    ([ "from"; "to"; "direction" ] @ counts_header)
    (List.map
       (fun (direction, (from_as, to_as), c) ->
         string_of_int from_as :: string_of_int to_as
         :: (match direction with `Import -> "import" | `Export -> "export")
         :: counts_row c)
       (Aggregate.per_pair_list agg));
  print_endline
    "(paper: 91.7% of import pairs and 92% of export pairs single-status;\n\
     \ 63.0% of pairs have unverified routes, 98.98% of unverified cases are\n\
     \ undeclared peerings)";
  let s = Aggregate.per_pair_summary agg in
  Table.print
    ~header:[ "metric"; "value" ]
    [ [ "directed pairs x direction"; Table.commas s.n_pairs ];
      [ "single-status import pairs"; pct s.single_status_import ];
      [ "single-status export pairs"; pct s.single_status_export ];
      [ "pairs with unverified routes"; Table.commas s.pairs_with_unverified ];
      [ "unverified hops that are undeclared peerings"; pct s.unverified_peering_mismatch ] ]

let figure4 () =
  section "Figure 4: verification status for all hops in BGP routes";
  write_csv "figure4_per_route" counts_header
    (List.map counts_row (Aggregate.per_route_list agg));
  print_endline
    "(paper: only 6.6% of routes single-status across all hops — 1.6%\n\
     \ verified, 3.0% unrecorded, 1.6% unverified; most routes mix 2-3\n\
     \ statuses)";
  let s = Aggregate.per_route_summary agg in
  Table.print
    ~header:[ "metric"; "share of routes" ]
    [ [ "single status"; pct s.single_status ];
      [ "  all verified"; pct s.single_verified ];
      [ "  all unrecorded"; pct s.single_unrecorded ];
      [ "  all unverified"; pct s.single_unverified ];
      [ "two statuses"; pct s.two_statuses ];
      [ "three or more"; pct s.three_plus ] ]

let figure5 () =
  section "Figure 5: breakdown of unrecorded cases (ASes with >=1 case)";
  print_endline
    "(paper: 22,562 ASes missing aut-num > 20,048 with zero rules > 2,706\n\
     \ zero-route ASes > 414 missing sets)";
  let b = Aggregate.unrec_breakdown agg in
  Table.print
    ~header:[ "unrecorded cause"; "ASes" ]
    [ [ "no aut-num object"; Table.commas b.ases_no_aut_num ];
      [ "zero import/export rules"; Table.commas b.ases_no_rules ];
      [ "filter references zero-route AS"; Table.commas b.ases_zero_route_as ];
      [ "missing set object"; Table.commas b.ases_missing_set ] ]

let figure6 () =
  section "Figure 6: breakdown of special cases (ASes with >=1 case)";
  print_endline
    "(paper: uphill 23,298 ASes (28.1%) >> missing routes 5,181 (6.2%) >>\n\
     \ export-self 994 (1.2%) > import-customer 325 (0.4%); more export-self\n\
     \ than import-customer)";
  let b = Aggregate.special_breakdown agg in
  Table.print
    ~header:[ "special case"; "ASes" ]
    [ [ "uphill propagation"; Table.commas b.ases_uphill ];
      [ "missing routes"; Table.commas b.ases_missing_routes ];
      [ "export self"; Table.commas b.ases_export_self ];
      [ "import customer"; Table.commas b.ases_import_customer ];
      [ "only-provider policies"; Table.commas b.ases_only_provider ];
      [ "Tier-1 pair"; Table.commas b.ases_tier1_pair ];
      [ "any special case"; Table.commas b.ases_any_special ] ]

(* ------------------------------------------------------------------ *)
(* Security comparison: RPSL verification vs ROV vs ASPA                *)
(* ------------------------------------------------------------------ *)

let security_comparison () =
  section "Security: anomaly detection — RPSL verification vs ROV vs ASPA";
  print_endline
    "(the paper positions RPSL verification next to ROV and ASPA (Section 6):\n\
     \ ROV only checks origins, ASPA only path shape; RPSL carries richer\n\
     \ intent but depends on adoption. Full adoption assumed below.)";
  let topo = world.topo in
  let observer = topo.ases.(0) in
  let roa = Rz_rpki.Roagen.of_topology ~adoption:1.0 topo in
  let aspa = Rz_rpki.Aspa.of_topology ~adoption:1.0 topo in
  let engine = Rz_verify.Engine.create world.db world.rels in
  let rpsl_flags route =
    match Rz_verify.Engine.verify_route engine route with
    | None -> false
    | Some report ->
      List.exists
        (fun (h : Rz_verify.Report.hop) -> h.status = Rz_verify.Status.Unverified)
        report.hops
  in
  let rov_flags (route : Rz_bgp.Route.t) =
    match Rz_bgp.Route.origin route with
    | Some origin -> Rz_rpki.Roa.is_invalid (Rz_rpki.Roa.validate roa route.prefix origin)
    | None -> false
  in
  let aspa_flags route =
    Rz_rpki.Aspa.verify_path aspa (Array.of_list (Rz_bgp.Route.dedup_path route))
    = Rz_rpki.Aspa.Invalid
  in
  let n_events = if quick then 30 else 150 in
  let evaluate name routes =
    let total = List.length routes in
    let count f = List.length (List.filter f routes) in
    [ name; string_of_int total;
      pct (fint (count rpsl_flags) /. fint (max 1 total));
      pct (fint (count rov_flags) /. fint (max 1 total));
      pct (fint (count aspa_flags) /. fint (max 1 total)) ]
  in
  let inject kind =
    List.map
      (fun (e : Rz_routegen.Anomaly.event) -> e.route)
      (Rz_routegen.Anomaly.inject topo ~observer ~n:n_events kind)
  in
  let clean =
    let all =
      List.concat_map (fun (d : Rz_bgp.Table_dump.t) -> d.routes) world.table_dumps
    in
    let arr = Array.of_list all in
    Array.to_list (Array.sub arr 0 (min (2 * n_events) (Array.length arr)))
  in
  Table.print
    ~header:[ "workload"; "routes"; "RPSL flags"; "ROV flags"; "ASPA flags" ]
    [ evaluate "prefix hijack" (inject Rz_routegen.Anomaly.Prefix_hijack);
      evaluate "forged origin" (inject Rz_routegen.Anomaly.Forged_origin);
      evaluate "route leak" (inject Rz_routegen.Anomaly.Route_leak);
      evaluate "clean routes (false positives)" clean ];
  print_endline
    "\nNote: the complementary blind spots match each mechanism's design: ROV\n\
     only sees origins; ASPA cannot see prefix ownership; RPSL coverage is\n\
     broad but its false-positive rate restates the paper's Figure-4 caveat\n\
     that mixed statuses limit anomaly troubleshooting at current adoption."

(* ------------------------------------------------------------------ *)
(* Future-work analytics: relationship inference and sibling detection  *)
(* ------------------------------------------------------------------ *)

let future_work_analytics () =
  section "Future-work analytics (paper Section 7)";
  let inferred = Rz_stats.Infer_rels.infer world.db in
  let acc = Rz_stats.Infer_rels.accuracy ~truth:world.rels inferred in
  Printf.printf
    "AS-relationship inference from RPSL rules: %s links inferred, %s present\n\
     in ground truth, precision %s\n"
    (Table.commas acc.inferred) (Table.commas acc.checked)
    (pct (fint acc.correct /. fint (max 1 acc.checked)));
  let clusters = Rz_stats.Siblings.clusters world.db in
  let sibling_ases = List.fold_left (fun a c -> a + List.length c.Rz_stats.Siblings.asns) 0 clusters in
  Printf.printf "sibling detection via shared maintainers: %d clusters covering %d ASes\n"
    (List.length clusters) sibling_ases;
  let profiles =
    Rz_stats.Classify.classify_all ~rels:world.rels
      ~observed:(Array.to_list world.topo.ases) world.db
  in
  print_endline "\nAS classification by RPSL usage style:";
  Table.print
    ~header:[ "style"; "ASes"; "share" ]
    (List.map
       (fun (style, count) ->
         [ Rz_stats.Classify.style_to_string style; string_of_int count;
           pct (fint count /. fint (List.length profiles)) ])
       (Rz_stats.Classify.histogram profiles))

(* ------------------------------------------------------------------ *)
(* Evolution: RPSL adoption tracked across snapshots                    *)
(* ------------------------------------------------------------------ *)

let evolution () =
  section "Evolution: adoption across simulated periodic scrapes";
  print_endline
    "(IRRs publish no history; the paper and prior work scrape periodically.\n\
     \ Three synthetic scrapes with growing adoption, diffed pairwise.)";
  let topo = world.topo in
  let snapshot quarter =
    (* adoption grows: fewer unregistered / silent ASes each scrape *)
    let config =
      { irr_config with
        Rz_synthirr.Config.seed = irr_config.Rz_synthirr.Config.seed + quarter;
        p_no_aut_num = irr_config.Rz_synthirr.Config.p_no_aut_num -. (0.04 *. fint quarter);
        p_no_rules = irr_config.Rz_synthirr.Config.p_no_rules -. (0.02 *. fint quarter) }
    in
    let w = Rz_synthirr.Generate.generate ~config topo in
    let ir = Rz_ir.Ir.create () in
    List.iter (fun (src, text) -> ignore (Rz_ir.Lower.add_dump ir ~source:src text)) w.dumps;
    ir
  in
  let snapshots = List.map snapshot [ 0; 1; 2 ] in
  List.iteri
    (fun i ir ->
      let n_aut = Hashtbl.length ir.Rz_ir.Ir.aut_nums in
      let with_rules =
        Hashtbl.fold
          (fun _ an acc -> if Rz_ir.Ir.n_rules an > 0 then acc + 1 else acc)
          ir.aut_nums 0
      in
      Printf.printf "scrape %d: %d aut-nums, %s with rules, %d route objects\n" i n_aut
        (pct (fint with_rules /. fint (max 1 n_aut)))
        (Rz_ir.Ir.n_route_objs ir))
    snapshots;
  let rec pairwise = function
    | a :: (b :: _ as rest) ->
      let d = Rz_stats.Evolution.diff ~before:a ~after:b in
      Printf.printf "  diff: %s\n" (Rz_stats.Evolution.summary d);
      pairwise rest
    | _ -> ()
  in
  pairwise snapshots

let () =
  table1 ();
  table1_coverage ();
  figure1 ();
  table2 ();
  section4_stats ();
  hop_status_overview ();
  figure2 ();
  figure3 ();
  figure4 ();
  figure5 ();
  figure6 ();
  security_comparison ();
  future_work_analytics ();
  evolution ();
  metrics_section ();
  print_newline ()
