(* End-to-end tests over the full pipeline (the Rpslyzer facade), plus
   aggregate-level checks of the Figures 2-6 machinery on real engine
   output. *)
module Aggregate = Rz_verify.Aggregate
module Status = Rz_verify.Status

let world =
  lazy
    (Rpslyzer.Pipeline.build_synthetic
       ~topo_params:
         { Rz_topology.Gen.default_params with n_tier1 = 3; n_mid = 25; n_stub = 80 }
       ())

let verified = lazy (Rpslyzer.Pipeline.verify (Lazy.force world))

let test_world_builds () =
  let w = Lazy.force world in
  let ir = Rz_irr.Db.ir w.db in
  Alcotest.(check bool) "aut-nums parsed" true (Hashtbl.length ir.Rz_ir.Ir.aut_nums > 50);
  Alcotest.(check bool) "routes parsed" true (Rz_ir.Ir.n_route_objs ir > 100);
  Alcotest.(check int) "two collectors" 2 (List.length w.table_dumps)

let test_verification_covers_routes () =
  let agg, `Total total, `Excluded excluded = Lazy.force verified in
  Alcotest.(check bool) "routes verified" true (Aggregate.n_routes agg > 1000);
  Alcotest.(check int) "total = verified + excluded" total
    (Aggregate.n_routes agg + excluded);
  Alcotest.(check bool) "hops counted" true
    (Aggregate.n_hops agg > Aggregate.n_routes agg)

let test_overall_shape () =
  (* the headline shape of the paper's results: verified and unrecorded
     are the dominant classes; every class except skip is populated *)
  let agg, _, _ = Lazy.force verified in
  let c = Aggregate.overall agg in
  let total = float_of_int (Aggregate.n_hops agg) in
  let frac n = float_of_int n /. total in
  Alcotest.(check bool) "verified substantial" true (frac c.verified > 0.15);
  Alcotest.(check bool) "unrecorded substantial" true (frac c.unrecorded > 0.2);
  Alcotest.(check bool) "special cases exist" true (c.relaxed + c.safelisted > 0);
  Alcotest.(check bool) "some unverified" true (c.unverified > 0)

let test_per_as_summary () =
  let agg, _, _ = Lazy.force verified in
  let s = Aggregate.per_as_summary agg in
  Alcotest.(check bool) "ases observed" true (s.n_ases > 50);
  (* the paper: a majority of ASes have a single consistent status *)
  Alcotest.(check bool) "many single-status ASes" true
    (float_of_int s.all_same_status /. float_of_int s.n_ases > 0.5);
  Alcotest.(check bool) "some all-verified" true (s.all_verified > 0);
  Alcotest.(check bool) "some all-unrecorded" true (s.all_unrecorded > 0);
  Alcotest.(check bool) "counts consistent" true
    (s.all_verified + s.all_unrecorded + s.all_relaxed + s.all_safelisted + s.all_unverified
     <= s.all_same_status)

let test_per_pair_summary () =
  let agg, _, _ = Lazy.force verified in
  let s = Aggregate.per_pair_summary agg in
  Alcotest.(check bool) "pairs observed" true (s.n_pairs > 100);
  (* the paper: ~92% of pairs have one consistent status; undeclared
     peerings dominate unverified cases (98.98%) *)
  Alcotest.(check bool) "most import pairs single-status" true (s.single_status_import > 0.7);
  Alcotest.(check bool) "most export pairs single-status" true (s.single_status_export > 0.7);
  Alcotest.(check bool) "peering mismatches dominate unverified" true
    (s.unverified_peering_mismatch > 0.5)

let test_per_route_summary () =
  let agg, _, _ = Lazy.force verified in
  let s = Aggregate.per_route_summary agg in
  Alcotest.(check bool) "routes" true (s.n_routes > 1000);
  let total = s.single_status +. s.two_statuses +. s.three_plus in
  Alcotest.(check (float 1e-6)) "fractions sum to 1" 1.0 total;
  (* the paper: only 6.6% of routes have one status across all hops *)
  Alcotest.(check bool) "mixed statuses dominate" true (s.single_status < 0.5)

let test_unrec_breakdown () =
  let agg, _, _ = Lazy.force verified in
  let b = Aggregate.unrec_breakdown agg in
  (* the paper's ordering: missing aut-nums and no-rules dominate over
     zero-route ASes and missing sets *)
  Alcotest.(check bool) "no_aut_num populated" true (b.ases_no_aut_num > 0);
  Alcotest.(check bool) "no_rules populated" true (b.ases_no_rules > 0);
  Alcotest.(check bool) "no_aut_num >= missing sets" true
    (b.ases_no_aut_num >= b.ases_missing_set)

let test_special_breakdown () =
  let agg, _, _ = Lazy.force verified in
  let b = Aggregate.special_breakdown agg in
  Alcotest.(check bool) "uphill dominates" true
    (b.ases_uphill >= b.ases_export_self && b.ases_uphill >= b.ases_import_customer);
  (* paper: more export-self than import-customer ASes *)
  Alcotest.(check bool) "export-self populated" true (b.ases_export_self > 0);
  Alcotest.(check bool) "any-special is the union" true
    (b.ases_any_special >= b.ases_uphill)

let test_usage_stats_on_world () =
  let w = Lazy.force world in
  let u = Rpslyzer.Pipeline.usage w in
  Alcotest.(check int) "13 table1 rows" 13 (List.length u.table1);
  let total_aut_nums =
    List.fold_left (fun acc (r : Rz_stats.Usage.table1_row) -> acc + r.n_aut_num) 0 u.table1
  in
  let ir = Rz_irr.Db.ir w.db in
  Alcotest.(check bool) "table1 aut-nums >= merged" true
    (total_aut_nums >= Hashtbl.length ir.Rz_ir.Ir.aut_nums);
  Alcotest.(check bool) "most peerings simple" true (u.peering_simple_fraction > 0.9);
  Alcotest.(check bool) "most ASes bgpq4-only" true (u.ases_bgpq4_only > 0.7);
  Alcotest.(check bool) "route stats populated" true (u.route_stats.n_objects > 0);
  Alcotest.(check bool) "multi-origin prefixes exist" true
    (u.route_stats.multi_origin_prefixes > 0)

let test_explain_route () =
  let w = Lazy.force world in
  let dump = List.hd w.table_dumps in
  (* find a multi-hop route *)
  let route =
    List.find (fun r -> List.length (Rz_bgp.Route.dedup_path r) >= 3) dump.routes
  in
  match Rpslyzer.Pipeline.explain_route_traced w route with
  | Some e ->
    let text = Rpslyzer.Pipeline.explanation_to_text e in
    Alcotest.(check bool) "report mentions the route" true
      (Rz_util.Strings.split_on_string ~sep:"route " text |> List.length > 1);
    Alcotest.(check bool) "reports Export and Import lines" true
      (Rz_util.Strings.split_on_string ~sep:"Export {" text |> List.length > 1
       && Rz_util.Strings.split_on_string ~sep:"Import {" text |> List.length > 1);
    let full = Rz_verify.Engine.explain_route (Rz_verify.Engine.create w.db w.rels) route in
    Alcotest.(check bool) "hops are the full fold's, items included" true
      (Option.map (fun (r : Rz_verify.Report.route_report) -> r.hops) full
       = Some (List.map (fun (h : Rpslyzer.Pipeline.explained_hop) -> h.hop) e.hops))
  | None -> Alcotest.fail "route unexpectedly excluded"

let test_parse_rpsl_one_shot () =
  let ir = Rpslyzer.parse_rpsl "aut-num: AS65000\nimport: from AS1 accept ANY\n" in
  Alcotest.(check bool) "facade parse" true (Rz_ir.Ir.find_aut_num ir 65000 <> None);
  let json = Rpslyzer.ir_to_json ir in
  Alcotest.(check bool) "facade json" true (Result.is_ok (Rz_json.Json.of_string json))

let test_paper_compat_mode_runs () =
  let w = Lazy.force world in
  let compat, _, _ =
    Rpslyzer.Pipeline.verify
      ~config:{ Rz_verify.Engine.default_config with paper_compat = true }
      w
  in
  let full, _, _ = Rpslyzer.Pipeline.verify w in
  Alcotest.(check bool) "compat mode verifies" true (Aggregate.n_hops compat > 0);
  Alcotest.(check int) "same hop volume" (Aggregate.n_hops full) (Aggregate.n_hops compat);
  (* the future-work extensions only add Skips in compat mode *)
  Alcotest.(check bool) "compat skips >= full skips" true
    ((Aggregate.overall compat).skipped >= (Aggregate.overall full).skipped);
  Alcotest.(check bool) "compat verifies <= full verifies" true
    ((Aggregate.overall compat).verified <= (Aggregate.overall full).verified)

(* ---------------- golden metrics ---------------- *)

(* Run the quick synthetic world end-to-end under an enabled Rz_obs
   registry with a fixed SplitMix seed and check the emitted metric
   *names* (the stable observability surface other tooling diffs
   against) plus the cross-metric invariants the engine guarantees. *)
let test_golden_metrics () =
  let module Obs = Rz_obs.Obs in
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
  @@ fun () ->
  let w =
    Rpslyzer.Pipeline.build_synthetic
      ~topo_params:
        { Rz_topology.Gen.default_params with seed = 7; n_tier1 = 3; n_mid = 15; n_stub = 50 }
      ~irr_config:{ Rz_synthirr.Config.default with seed = 8 }
      ()
  in
  let agg, `Total _, `Excluded excluded = Rpslyzer.Pipeline.verify w in
  let snap = Obs.Registry.snapshot () in
  let counters = Obs.Registry.counters snap in
  let counter name =
    match List.assoc_opt name counters with
    | Some v -> v
    | None -> Alcotest.failf "golden counter %s missing from snapshot" name
  in
  (* golden name set: these exact names are the contract *)
  List.iter
    (fun name -> ignore (counter name))
    [ "rpsl.objects_total"; "rpsl.attrs_total"; "rpsl.errors_total";
      "ir.objects_lowered_total"; "ir.rules_total"; "ir.errors_total";
      "irr.trie_inserts_total"; "irr.as_flat.hits"; "irr.as_flat.misses";
      "irr.rs_flat.hits"; "irr.rs_flat.misses";
      "synthirr.dumps_total"; "synthirr.bytes_total";
      "routegen.routes_total";
      "verify.hops_total"; "verify.routes_total"; "verify.routes_excluded_total";
      "verify.status.verified"; "verify.status.skipped"; "verify.status.unrecorded";
      "verify.status.relaxed"; "verify.status.safelisted"; "verify.status.unverified";
      "verify.filter_evals.as_set"; "verify.filter_abstains_total";
      "verify.memo_hits"; "verify.memo_misses"; "nfa.compile_hits";
      "ingest.parallel.domains";
      "snapshot.hits"; "snapshot.misses"; "snapshot.rejects";
      "trace.records_total"; "trace.dropped_total" ];
  let span_names = List.map fst (Obs.Registry.spans snap) in
  List.iter
    (fun name ->
      Alcotest.(check bool) (Printf.sprintf "span %s present" name) true
        (List.mem name span_names && Obs.Span.count name > 0))
    [ "generate"; "parse"; "lower"; "db-build"; "routegen"; "verify" ];
  (* invariants *)
  Alcotest.(check int) "hops_total = sum of per-status counters"
    (counter "verify.hops_total")
    (counter "verify.status.verified" + counter "verify.status.skipped"
     + counter "verify.status.unrecorded" + counter "verify.status.relaxed"
     + counter "verify.status.safelisted" + counter "verify.status.unverified");
  Alcotest.(check int) "hops_total = aggregate hop count"
    (Aggregate.n_hops agg) (counter "verify.hops_total");
  Alcotest.(check int) "routes counter = aggregate routes"
    (Aggregate.n_routes agg) (counter "verify.routes_total");
  Alcotest.(check int) "excluded counter" excluded (counter "verify.routes_excluded_total");
  Alcotest.(check bool) "as_flat hits+misses covers as-set filter evals" true
    (counter "irr.as_flat.hits" + counter "irr.as_flat.misses"
     >= counter "verify.filter_evals.as_set");
  Alcotest.(check int) "13 IRR dumps generated" 13 (counter "synthirr.dumps_total");
  (* build_synthetic ingests once, through Rz_ingest, on one domain; no
     snapshot is involved in this pipeline *)
  Alcotest.(check int) "one single-domain ingest" 1 (counter "ingest.parallel.domains");
  Alcotest.(check int) "no snapshot traffic" 0
    (counter "snapshot.hits" + counter "snapshot.misses" + counter "snapshot.rejects");
  Alcotest.(check bool) "routegen emitted the collector routes" true
    (counter "routegen.routes_total" > 0);
  Alcotest.(check int) "trie inserts = route objects"
    (Rz_ir.Ir.n_route_objs (Rz_irr.Db.ir w.db))
    (counter "irr.trie_inserts_total");
  (* hot-path overhaul counters: the sequential engine memoizes hop
     verdicts, so the memo ledger covers a (strict) subset of hop checks *)
  Alcotest.(check bool) "memo counters cover a subset of hops" true
    (counter "verify.memo_hits" + counter "verify.memo_misses"
     <= counter "verify.hops_total");
  Alcotest.(check bool) "memoization active on the sequential path" true
    (counter "verify.memo_misses" > 0);
  (* the hop ledger is additive: a second verify over doubled dumps
     grows the counter by exactly that run's aggregate hop count *)
  let w2 =
    { w with
      Rpslyzer.Pipeline.table_dumps = w.table_dumps @ w.table_dumps }
  in
  let agg2, _, _ = Rpslyzer.Pipeline.verify w2 in
  let counters2 = Obs.Registry.counters (Obs.Registry.snapshot ()) in
  Alcotest.(check int) "hop ledger exact across runs"
    (counter "verify.hops_total" + Aggregate.n_hops agg2)
    (List.assoc "verify.hops_total" counters2);
  (* the snapshot renders to JSON that Rz_json re-parses, and the run
     metadata set through Obs.Meta leads the document under "meta" *)
  Obs.Meta.set "subcommand" (Rz_json.Json.String "golden-test");
  Obs.Meta.set "seed" (Rz_json.Json.Int 7);
  let snap3 = Obs.Registry.snapshot () in
  Alcotest.(check bool) "meta in snapshot" true
    (List.assoc_opt "seed" (Obs.Registry.meta snap3) = Some (Rz_json.Json.Int 7));
  (match Rz_json.Json.of_string (Rz_json.Json.to_string (Obs.Registry.to_json snap3)) with
   | Ok doc ->
     (match Rz_json.Json.member "meta" doc with
      | Some meta ->
        Alcotest.(check bool) "meta.subcommand round-trips" true
          (Rz_json.Json.member "subcommand" meta
           = Some (Rz_json.Json.String "golden-test"))
      | None -> Alcotest.fail "snapshot JSON has no meta header")
   | Error e -> Alcotest.failf "snapshot JSON invalid: %s" e);
  (match Rz_json.Json.of_string (Rz_json.Json.to_string (Obs.Registry.to_json snap)) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "snapshot JSON invalid: %s" e)

let test_golden_metrics_deterministic () =
  (* same seed, fresh registry: the counter panel is identical (spans
     carry wall time and are excluded) *)
  let module Obs = Rz_obs.Obs in
  let run () =
    Obs.reset ();
    Obs.enable ();
    Fun.protect ~finally:(fun () ->
        Obs.disable ())
    @@ fun () ->
    let w =
      Rpslyzer.Pipeline.build_synthetic
        ~topo_params:
          { Rz_topology.Gen.default_params with seed = 7; n_tier1 = 3; n_mid = 10; n_stub = 30 }
        ~irr_config:{ Rz_synthirr.Config.default with seed = 8 }
        ()
    in
    ignore (Rpslyzer.Pipeline.verify w);
    let counters = Obs.Registry.counters (Obs.Registry.snapshot ()) in
    Obs.reset ();
    counters
  in
  Alcotest.(check (list (pair string int))) "two runs, same counters" (run ()) (run ())

let suite =
  [ Alcotest.test_case "world builds" `Quick test_world_builds;
    Alcotest.test_case "verification covers routes" `Quick test_verification_covers_routes;
    Alcotest.test_case "overall shape" `Quick test_overall_shape;
    Alcotest.test_case "per-AS summary (fig 2)" `Quick test_per_as_summary;
    Alcotest.test_case "per-pair summary (fig 3)" `Quick test_per_pair_summary;
    Alcotest.test_case "per-route summary (fig 4)" `Quick test_per_route_summary;
    Alcotest.test_case "unrecorded breakdown (fig 5)" `Quick test_unrec_breakdown;
    Alcotest.test_case "special breakdown (fig 6)" `Quick test_special_breakdown;
    Alcotest.test_case "usage stats on world" `Quick test_usage_stats_on_world;
    Alcotest.test_case "explain route" `Quick test_explain_route;
    Alcotest.test_case "facade one-shots" `Quick test_parse_rpsl_one_shot;
    Alcotest.test_case "paper-compat mode" `Quick test_paper_compat_mode_runs;
    Alcotest.test_case "golden metrics" `Quick test_golden_metrics;
    Alcotest.test_case "golden metrics deterministic" `Quick
      test_golden_metrics_deterministic ]
