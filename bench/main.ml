(* Paper-evaluation report: regenerates every table and figure of the
   paper's evaluation over the synthetic world and prints
   paper-vs-measured values. It times nothing: all timing is perfbench's
   (perfbench/run.py).

   Run with: dune exec bench/main.exe -- [--quick] [--csv DIR]
   [--metrics FILE]. Its stdout is pinned by test/golden: the --quick
   report whole, and the default report's paper-vs-measured blocks as
   the tables of EXPERIMENTS.md. The exact accounting of the verify,
   ingest, stream and serve jobs on the --quick world is pinned in
   test/suite_accounting.ml; their timing is perfbench's. *)

module Table = Rz_util.Table
module Stats_util = Rz_util.Stats_util
module Aggregate = Rz_verify.Aggregate

(* --csv DIR also writes each figure's raw data series for plotting;
   --metrics FILE enables the Rz_obs registry for the whole run and writes
   its JSON snapshot (phase timings, counters, latency quantiles). *)
let quick, csv_dir, metrics_path =
  let quick = ref false in
  let csv_dir = ref None and metrics_path = ref None in
  Arg.parse
    (Arg.align
       [ ("--quick", Arg.Set quick, " Smoke-size world: 4 tier-1, 40 transit, 160 stub ASes");
         ("--csv", Arg.String (fun d -> csv_dir := Some d),
          "DIR Also write each figure's raw data series to DIR");
         ("--metrics", Arg.String (fun f -> metrics_path := Some f),
          "FILE Write an Rz_obs JSON snapshot after the headline verification") ])
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "Usage: main.exe [--quick] [--csv DIR] [--metrics FILE]";
  (!quick, !csv_dir, !metrics_path)

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
   count. The cross-check against that count is printed at the end. *)
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
    Printf.printf "verify.hops_total vs aggregate hops: %d / %d\n"
      (List.assoc "verify.hops_total" (Rpslyzer.Obs.Registry.counters snap))
      (Aggregate.n_hops agg)

(* ------------------------------------------------------------------ *)
(* The paper's values, written once                                     *)
(* ------------------------------------------------------------------ *)

(* One row per compared property: (EXPERIMENTS.md block, property, the
   paper's value, the measured value). Each report section prints its
   block's rows as the Markdown table that EXPERIMENTS.md carries between
   <!-- bench:BLOCK --> markers; test/golden/dune diffs that file against
   the default report. Where two statements of a paper value disagree,
   both are kept, labelled (a) and (b); EXPERIMENTS.md says which is
   which. *)
let paper_rows =
  let module U = Rz_stats.Usage in
  let t1 = usage.table1 in
  (* Table 1's priority order: the authoritative registries, RADB, the rest *)
  let auth, radb, rest =
    let rec split auth = function
      | (r : U.table1_row) :: tl when r.irr <> "RADB" -> split (r :: auth) tl
      | radb :: tl -> (List.rev auth, radb, tl)
      | [] -> invalid_arg "Table 1 has no RADB row"
    in
    split [] t1
  in
  let names rows = String.concat ", " (List.map (fun r -> r.U.irr) rows) in
  let most f rows = List.fold_left (fun a r -> if f r > f a then r else a) (List.hd rows) rows in
  let largest = most (fun r -> r.U.size_bytes) t1 in
  let most_routes = most (fun r -> r.U.n_route) (radb :: rest) in
  let lacnic = List.find (fun r -> r.U.irr = "LACNIC") t1 in
  let total_kib = fint (List.fold_left (fun a r -> a + r.U.size_bytes) 0 t1) /. 1024. in
  let rules = List.map snd usage.rules_per_aut_num in
  let ccdf samples x = snd (List.hd (Stats_util.ccdf_at samples [ x ])) in
  let bgpq4 = List.map snd usage.bgpq4_rules_per_aut_num in
  let t2 = usage.table2 and rs = usage.route_stats and sets = usage.as_set_stats in
  let e = usage.error_stats in
  let share n d = pct (fint n /. fint (max 1 d)) in
  let c = Aggregate.overall agg and n_hops = Aggregate.n_hops agg in
  let ases = Aggregate.per_as_summary agg in
  let pairs = Aggregate.per_pair_summary agg in
  let routes = Aggregate.per_route_summary agg in
  let unrec = Aggregate.unrec_breakdown agg in
  let special = Aggregate.special_breakdown agg in
  let of_ases n = Printf.sprintf "%s (%s)" (Table.commas n) (share n ases.n_ases) in
  let slash = String.concat " / " in
  [ ("table1", "number of IRRs, priority order", "13, authoritative → RADB → rest",
     Printf.sprintf "%d: %s → %s → %s" (List.length t1) (names auth) radb.irr (names rest));
    ("table1", "total size", "7,073 MiB", Printf.sprintf "%.0f KiB" total_kib);
    ("table1", "largest IRR by size and rules", "RIPE (5,184 MiB; 368k imports)",
     Printf.sprintf "%s (%.0f KiB; %s imports)" largest.irr
       (fint largest.size_bytes /. 1024.) (Table.commas largest.n_import));
    ("table1", "most routes among non-authoritative", "RADB (1.62M routes)",
     Printf.sprintf "%s (%s routes)" most_routes.irr (Table.commas most_routes.n_route));
    ("table1", "LACNIC carries no import/export", "0 / 0",
     Printf.sprintf "%d / %d" lacnic.n_import lacnic.n_export);
    ("figure1", "aut-nums with zero rules", "35.2%",
     pct (Stats_util.fraction (fun n -> n = 0) rules));
    ("figure1", "P(rules ≥ 10)", "10.9%", pct (ccdf rules 10));
    ("figure1", "P(rules > 1000)", "0.13%", pct (ccdf rules 1001));
    ("figure1", "P(rules ≥ 1), all rules vs BGPq4-compatible", "64.8%, similar series",
     Printf.sprintf "%s vs %s" (pct (ccdf rules 1)) (pct (ccdf bgpq4 1)));
    ("figure1", "simple peerings (single ASN or ANY)", "98.4%", pct usage.peering_simple_fraction);
    ("figure1", "ASes fully BGPq4-compatible", "94.5%", pct usage.ases_bgpq4_only);
    ("table2", "aut-nums defined / referenced", "78,701 / 52,028 (a); 60.4% referenced (b)",
     Printf.sprintf "%s / %s (%s)" (Table.commas t2.defined_aut_num)
       (Table.commas t2.ref_overall_aut_num) (share t2.ref_overall_aut_num t2.defined_aut_num));
    ("table2", "as-sets defined / referenced", "53,268 / 17,789 (a); 31.7% referenced (b)",
     Printf.sprintf "%s / %s (%s)" (Table.commas t2.defined_as_set)
       (Table.commas t2.ref_overall_as_set) (share t2.ref_overall_as_set t2.defined_as_set));
    ("table2", "route-sets defined / referenced (≪ as-sets referenced)", "24,460 / 1,711",
     Printf.sprintf "%s / %s" (Table.commas t2.defined_route_set)
       (Table.commas t2.ref_overall_route_set));
    ("table2", "peering-/filter-sets defined / referenced", "342/64, 203/50",
     Printf.sprintf "%d/%d, %d/%d" t2.defined_peering_set t2.ref_overall_peering_set
       t2.defined_filter_set t2.ref_overall_filter_set);
    ("section4", "route objects > unique pairs > unique prefixes",
     "3,904,352 > 3,367,914 > 2,817,344",
     Printf.sprintf "%s > %s > %s" (Table.commas rs.n_objects)
       (Table.commas rs.n_prefix_origin) (Table.commas rs.n_prefixes));
    ("section4", "multi-object prefixes", "24.7%", share rs.multi_object_prefixes rs.n_prefixes);
    ("section4", "… of which multi-origin", "58.1%",
     share rs.multi_origin_prefixes rs.multi_object_prefixes);
    ("section4", "… of which multi-maintainer", "67.3%",
     share rs.multi_maintainer_prefixes rs.multi_object_prefixes);
    ("section4", "as-sets: empty", "14.5%", share sets.empty sets.n_sets);
    ("section4", "as-sets: singleton", "32.7%", share sets.singleton sets.n_sets);
    ("section4", "as-sets: over 10k members", "1.4%", share sets.over_10k sets.n_sets);
    ("section4", "as-sets: contain reserved word ANY", "3", string_of_int sets.contains_any);
    ("section4", "recursive as-sets", "25.5%", share sets.recursive sets.n_sets);
    ("section4", "… of which loops / depth≥5", "22.4% / 23.0%",
     slash [ share sets.with_loop sets.recursive; share sets.depth_5_plus sets.recursive ]);
    ("section4", "errors: syntax / bad as-set names / bad route-set names", "663 / 12 / 17",
     Printf.sprintf "%d / %d / %d" e.syntax_errors e.invalid_as_set_names
       e.invalid_route_set_names);
    ("section5", "verified (strict match)", "29.3%", share c.verified n_hops);
    ("section5", "unrecorded", "40.4%", share c.unrecorded n_hops);
    ("section5", "special-cased (relaxed + safelisted)", "19.0%",
     share (c.relaxed + c.safelisted) n_hops);
    ("section5", "unverified", "~11.3%", share c.unverified n_hops);
    ("section5", "skipped", "0.01% of rules / 0.03% of ASes",
     Printf.sprintf "%s of hops / %s of ASes" (share c.skipped n_hops)
       (share ases.with_skips ases.n_ases));
    ("figure2", "single-status ASes", "74.4%", share ases.all_same_status ases.n_ases);
    ("figure2", "all-verified", "14.2%", share ases.all_verified ases.n_ases);
    ("figure2", "all-unrecorded", "51.6%", share ases.all_unrecorded ases.n_ases);
    ("figure2", "all-relaxed", "0.34%", share ases.all_relaxed ases.n_ases);
    ("figure2", "all-safelisted", "6.9%", share ases.all_safelisted ases.n_ases);
    ("figure2", "≥1 unrecorded", "54.9%", share ases.with_unrecorded ases.n_ases);
    ("figure2", "≥1 special case", "30.9%", share ases.with_special ases.n_ases);
    ("figure3", "single-status import pairs", "91.7%", pct pairs.single_status_import);
    ("figure3", "single-status export pairs", "92%", pct pairs.single_status_export);
    ("figure3", "pairs with unverified routes", "63.0%",
     Printf.sprintf "%s (%s of %s)" (share pairs.pairs_with_unverified pairs.n_pairs)
       (Table.commas pairs.pairs_with_unverified) (Table.commas pairs.n_pairs));
    ("figure3", "unverified hops that are undeclared peerings", "98.98%",
     pct pairs.unverified_peering_mismatch);
    ("figure4", "routes with a single status across hops", "6.6%", pct routes.single_status);
    ("figure4", "… all-verified / all-unrecorded / all-unverified", "1.6% / 3.0% / 1.6%",
     slash [ pct routes.single_verified; pct routes.single_unrecorded;
             pct routes.single_unverified ]);
    ("figure4", "routes with two / three or more statuses", "most routes",
     slash [ pct routes.two_statuses; pct routes.three_plus ]);
    ("figure5", "no aut-num", "22,562", Table.commas unrec.ases_no_aut_num);
    ("figure5", "zero rules", "20,048", Table.commas unrec.ases_no_rules);
    ("figure5", "zero-route AS in filter", "2,706", Table.commas unrec.ases_zero_route_as);
    ("figure5", "missing set object", "414", Table.commas unrec.ases_missing_set);
    ("figure6", "uphill", "23,298 (28.1%)", of_ases special.ases_uphill);
    ("figure6", "missing routes", "5,181 (6.2%)", of_ases special.ases_missing_routes);
    ("figure6", "export self", "994 (1.2%)", of_ases special.ases_export_self);
    ("figure6", "import customer", "325 (0.4%)", of_ases special.ases_import_customer) ]

(* The rows of [block], as the Markdown table between its markers. *)
let paper_block block =
  Printf.printf "<!-- bench:%s -->\n| Property | Paper | Measured |\n|---|---|---|\n" block;
  List.iter
    (fun (b, property, paper, measured) ->
      if b = block then Printf.printf "| %s | %s | %s |\n" property paper measured)
    paper_rows;
  Printf.printf "<!-- /bench:%s -->\n" block

(* ------------------------------------------------------------------ *)
(* Table 1                                                              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: IRRs used, grouped and ordered by priority";
  paper_block "table1";
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
  let c = Rz_stats.Coverage.compute ~table1:usage.table1 world.db in
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
  paper_block "figure1";
  let xs = [ 1; 2; 5; 10; 20; 50; 100; 1000 ] in
  let all = Stats_util.ccdf_at (List.map snd usage.rules_per_aut_num) xs in
  let bq = Stats_util.ccdf_at (List.map snd usage.bgpq4_rules_per_aut_num) xs in
  Table.print
    ~header:[ "rules >="; "P(all rules)"; "P(bgpq4-compatible)" ]
    (List.map2
       (fun (x, fa) (_, fb) -> [ string_of_int x; pct fa; pct fb ])
       all bq)

(* ------------------------------------------------------------------ *)
(* Table 2                                                              *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: objects defined and referenced in rules";
  paper_block "table2";
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
  paper_block "section4";
  let rs = usage.route_stats and s = usage.as_set_stats in
  Printf.printf "multi-object prefixes %s: multi-origin %s, multi-maintainer %s\n"
    (Table.commas rs.multi_object_prefixes) (Table.commas rs.multi_origin_prefixes)
    (Table.commas rs.multi_maintainer_prefixes);
  Printf.printf "as-sets %s: recursive %s, with loops %s, depth>=5 %s\n"
    (Table.commas s.n_sets) (Table.commas s.recursive) (Table.commas s.with_loop)
    (Table.commas s.depth_5_plus)

(* ------------------------------------------------------------------ *)
(* Figures 2-4                                                          *)
(* ------------------------------------------------------------------ *)

let hop_status_overview () =
  section "Hop-status overview (abstract's per-interconnection shares)";
  paper_block "section5";
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
  paper_block "figure2";
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
  paper_block "figure3"

let figure4 () =
  section "Figure 4: verification status for all hops in BGP routes";
  write_csv "figure4_per_route" counts_header
    (List.map counts_row (Aggregate.per_route_list agg));
  paper_block "figure4"

let figure5 () =
  section "Figure 5: breakdown of unrecorded cases (ASes with >=1 case)";
  paper_block "figure5"

let figure6 () =
  section "Figure 6: breakdown of special cases (ASes with >=1 case)";
  paper_block "figure6";
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
    Rz_ingest.Ingest.ingest (Rz_synthirr.Generate.generate ~config topo).dumps
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
