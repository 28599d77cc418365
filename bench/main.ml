(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation over the synthetic world, prints paper-vs-measured values,
   and runs Bechamel micro-benchmarks (one per table/figure pipeline
   stage, plus the ablations called out in DESIGN.md).

   Run with: dune exec bench/main.exe
   Pass --quick to shrink the world (used by CI/tests). *)

module Table = Rz_util.Table
module Stats_util = Rz_util.Stats_util
module Aggregate = Rz_verify.Aggregate

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

(* --csv DIR: also write each figure's raw data series for plotting. *)
let csv_dir =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = "--csv" then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

(* --metrics FILE: enable the Rz_obs registry for the whole run and
   write a machine-readable JSON perf snapshot (phase timings, counters,
   latency quantiles) that future PRs can diff against. *)
let metrics_path =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = "--metrics" then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

(* --bench-verify [FILE]: run the verify-throughput benchmark (memo/dedup
   overhaul vs the pre-overhaul engine ablation), write FILE (default
   BENCH_verify.json), and exit. --bench-baseline FILE additionally
   compares route accounting against a committed baseline snapshot and
   fails when it drifts. *)
let bench_verify_out =
  let rec find i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--bench-verify" then
      if
        i + 1 < Array.length Sys.argv
        && not (String.length Sys.argv.(i + 1) >= 2 && String.sub Sys.argv.(i + 1) 0 2 = "--")
      then Some Sys.argv.(i + 1)
      else Some "BENCH_verify.json"
    else find (i + 1)
  in
  find 1

(* --bench-stream [FILE]: run the streaming-verification benchmark
   (sustained updates/sec through the incremental service, bounded-queue
   hwm, rate-1.0 chaos survival), write the JSON result to FILE (default
   BENCH_stream.json), and exit. Shares --bench-baseline for the
   accounting gate. *)
let bench_stream_out =
  let rec find i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--bench-stream" then
      if
        i + 1 < Array.length Sys.argv
        && not (String.length Sys.argv.(i + 1) >= 2 && String.sub Sys.argv.(i + 1) 0 2 = "--")
      then Some Sys.argv.(i + 1)
      else Some "BENCH_stream.json"
    else find (i + 1)
  in
  find 1

(* --bench-serve [FILE]: run the query-service benchmark (queries/sec
   through the shared dispatch path, single-threaded and with worker
   domains racing live NRTM generation swaps), write the JSON result to
   FILE (default BENCH_serve.json), and exit. Shares --bench-baseline
   for the accounting gate. *)
let bench_serve_out =
  let rec find i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--bench-serve" then
      if
        i + 1 < Array.length Sys.argv
        && not (String.length Sys.argv.(i + 1) >= 2 && String.sub Sys.argv.(i + 1) 0 2 = "--")
      then Some Sys.argv.(i + 1)
      else Some "BENCH_serve.json"
    else find (i + 1)
  in
  find 1

(* --bench-scale [FILE]: run the paper-scale shard-and-merge benchmark
   (multi-process verify over a replicated RIB vs the in-process oracle),
   write FILE (default BENCH_scale.json), and exit. Shares
   --bench-baseline for the accounting gate. *)
let bench_scale_out =
  let rec find i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--bench-scale" then
      if
        i + 1 < Array.length Sys.argv
        && not (String.length Sys.argv.(i + 1) >= 2 && String.sub Sys.argv.(i + 1) 0 2 = "--")
      then Some Sys.argv.(i + 1)
      else Some "BENCH_scale.json"
    else find (i + 1)
  in
  find 1

(* OCaml 5 forbids Unix.fork in a process that has ever spawned a
   domain, and the shard-and-merge bench forks workers. Pin the world
   build (parallel ingest) to one domain for that mode, via the same env
   override every call site already honors; the in-process oracle pass
   (which does spawn a domain) runs after the forking passes. *)
let () =
  if bench_scale_out <> None then Unix.putenv "RPSLYZER_DOMAINS" "1"

let bench_baseline_path =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = "--bench-baseline" then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

(* --bench-ingest [FILE]: run the ingestion benchmark (parallel sharded
   parse + IR snapshot cache vs the sequential Db.of_dumps loop), write
   FILE (default BENCH_ingest.json), and exit. Shares --bench-baseline
   with the verify bench: only one benchmark runs per invocation. *)
let bench_ingest_out =
  let rec find i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--bench-ingest" then
      if
        i + 1 < Array.length Sys.argv
        && not (String.length Sys.argv.(i + 1) >= 2 && String.sub Sys.argv.(i + 1) 0 2 = "--")
      then Some Sys.argv.(i + 1)
      else Some "BENCH_ingest.json"
    else find (i + 1)
  in
  find 1

(* --metrics-diff CURRENT BASELINE: structurally compare two metrics /
   bench JSON snapshots and exit non-zero on regressions, without
   building a world. Wall-clock keys and the per-run subtrees
   (meta/histograms/spans) are skipped; throughput keys (routes_per_sec,
   mib_per_sec, speedup...) are floor-checked — CURRENT must retain at
   least (1 - tolerance) of BASELINE — and every other leaf must match
   exactly, including the key sets themselves. --diff-tolerance P sets
   the allowed fractional throughput regression (default 0.1). *)
let metrics_diff_args =
  let rec find i =
    if i >= Array.length Sys.argv - 2 then None
    else if Sys.argv.(i) = "--metrics-diff" then Some (Sys.argv.(i + 1), Sys.argv.(i + 2))
    else find (i + 1)
  in
  find 1

let diff_tolerance =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then 0.1
    else if Sys.argv.(i) = "--diff-tolerance" then float_of_string Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let () =
  match metrics_diff_args with
  | None -> ()
  | Some (current_path, baseline_path) ->
    let module Json = Rpslyzer.Json in
    let read path =
      let text =
        try
          let ic = open_in path in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          s
        with Sys_error e ->
          Printf.eprintf "METRICS DIFF FAILED: %s\n" e;
          exit 1
      in
      match Json.of_string text with
      | Ok j -> j
      | Error e ->
        Printf.eprintf "METRICS DIFF FAILED: %s: %s\n" path e;
        exit 1
    in
    (* Per-run subtrees: distributions, rolling windows and span trees
       have no stable cross-run identity, and meta is run metadata by
       construction. *)
    let skip_subtrees = [ "meta"; "histograms"; "spans"; "windows" ] in
    (* Wall-clock (and host-shape) keys: informational, never compared. *)
    let skip_keys =
      [ "secs"; "save_secs"; "load_secs"; "ablation_secs"; "sharded_secs";
        "total_ns"; "max_ns"; "p50"; "p90"; "p99"; "duration_s";
        "start_unix_s"; "elapsed_s"; "domains_effective"; "cores";
        "minor_words"; "major_words" ]
    in
    let starts_with p s =
      String.length s >= String.length p && String.sub s 0 (String.length p) = p
    in
    let ends_with p s =
      String.length s >= String.length p
      && String.sub s (String.length s - String.length p) (String.length p) = p
    in
    let is_throughput k = ends_with "_per_sec" k || starts_with "speedup" k in
    let num = function
      | Json.Int i -> Some (float_of_int i)
      | Json.Float f -> Some f
      | _ -> None
    in
    let problems = ref [] in
    let problem path msg =
      problems := Printf.sprintf "%s: %s" path msg :: !problems
    in
    let rec walk path key base cur =
      match (base, cur) with
      | Json.Obj bs, Json.Obj cs ->
        List.iter
          (fun (k, bv) ->
            if not (List.mem k skip_subtrees || List.mem k skip_keys) then
              let sub = if path = "" then k else path ^ "." ^ k in
              match List.assoc_opt k cs with
              | Some cv -> walk sub k bv cv
              | None -> problem sub "missing from current snapshot")
          bs;
        List.iter
          (fun (k, _) ->
            if
              (not (List.mem k skip_subtrees || List.mem k skip_keys))
              && List.assoc_opt k bs = None
            then problem (if path = "" then k else path ^ "." ^ k) "not in baseline")
          cs
      | Json.List bs, Json.List cs ->
        if List.length bs <> List.length cs then
          problem path
            (Printf.sprintf "length %d vs baseline %d" (List.length cs)
               (List.length bs))
        else
          List.iteri
            (fun i (bv, cv) -> walk (Printf.sprintf "%s[%d]" path i) key bv cv)
            (List.combine bs cs)
      | _ -> (
        match (num base, num cur) with
        | Some b, Some c ->
          if is_throughput key then begin
            let floor = (1. -. diff_tolerance) *. b in
            if c < floor then
              problem path
                (Printf.sprintf
                   "throughput regression: %.1f vs baseline %.1f (floor %.1f at tolerance %.2f)"
                   c b floor diff_tolerance)
          end
          else if
            abs_float (c -. b) > 1e-9 *. Float.max 1. (Float.max (abs_float b) (abs_float c))
          then problem path (Printf.sprintf "%g vs baseline %g" c b)
        | _ ->
          if not (Json.equal base cur) then
            problem path
              (Printf.sprintf "%s vs baseline %s" (Json.to_string cur)
                 (Json.to_string base)))
    in
    walk "" "" (read baseline_path) (read current_path);
    (match !problems with
     | [] ->
       Printf.printf "metrics diff: %s matches %s (tolerance %.2f)\n" current_path
         baseline_path diff_tolerance;
       exit 0
     | ps ->
       Printf.eprintf "METRICS DIFF FAILED: %s vs %s (%d problem(s)):\n" current_path
         baseline_path (List.length ps);
       List.iter (fun p -> Printf.eprintf "  %s\n" p) (List.rev ps);
       exit 1)

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

(* GC pressure of the whole bench process up to payload-write time —
   recorded in every BENCH_*.json so allocation regressions show up in
   snapshot history even when wall-clock noise hides them. Run-varying,
   so the metrics diff skips these keys. *)
let gc_json () =
  let module Json = Rpslyzer.Json in
  let s = Gc.quick_stat () in
  Json.Obj
    [ ("minor_words", Json.Float s.Gc.minor_words);
      ("major_words", Json.Float s.Gc.major_words) ]

(* ------------------------------------------------------------------ *)
(* World construction (calibrated to the paper's population mixes)     *)
(* ------------------------------------------------------------------ *)

let big = Array.exists (fun a -> a = "--big") Sys.argv

let topo_params =
  if quick then { Rz_topology.Gen.default_params with n_tier1 = 4; n_mid = 40; n_stub = 160 }
  else if big then { Rz_topology.Gen.default_params with n_tier1 = 8; n_mid = 400; n_stub = 3000 }
  else { Rz_topology.Gen.default_params with n_tier1 = 6; n_mid = 150; n_stub = 700 }

let irr_config = Rz_synthirr.Config.default

let world =
  let t0 = Unix.gettimeofday () in
  let w = Rpslyzer.Pipeline.build_synthetic ~topo_params ~irr_config () in
  Printf.printf "world: %d ASes, built in %.2fs\n" (Rz_topology.Gen.n_ases w.topo)
    (Unix.gettimeofday () -. t0);
  w

(* ------------------------------------------------------------------ *)
(* Chaos mode: corruption-rate sweep (--chaos)                         *)
(* ------------------------------------------------------------------ *)

(* Sweeps object-level corruption over the freshly built world and
   asserts the robustness contract rather than timing anything: the
   pipeline must complete at every rate (no exception reaches us), route
   accounting must stay intact (collector dumps are not corrupted, and a
   crashed domain's shard is retried — so totals never move), and
   verification quality must degrade roughly in proportion to the damage,
   never collapse. Runs after world construction and exits 0, skipping
   the paper tables and micro-benchmarks. *)
let chaos = Array.exists (fun a -> a = "--chaos") Sys.argv

let () =
  if chaos then begin
    section "Chaos sweep: full pipeline under corrupted IRR dumps";
    Rpslyzer.Obs.enable ();
    let chaos_seed = 1337 in
    let rates = [ 0.0; 0.02; 0.05; 0.1; 0.2 ] in
    let run rate =
      Rpslyzer.Obs.reset ();
      let plan = Rz_fault.Fault.plan ~seed:chaos_seed ~rate () in
      let corrupted, report = Rz_fault.Fault.corrupt_dumps plan world.dumps in
      let db = Rz_irr.Db.of_dumps corrupted in
      let w = { world with Rpslyzer.Pipeline.db; dumps = corrupted } in
      let inject_domain_fault =
        if rate > 0. then Some (fun d -> if d = 0 then failwith "chaos domain crash")
        else None
      in
      let t0 = Unix.gettimeofday () in
      let agg, `Total total, `Excluded excluded =
        Rpslyzer.Pipeline.verify_parallel ?inject_domain_fault ~domains:4 w
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      let counts = Aggregate.counts_classes (Aggregate.overall agg) in
      let verified = List.assoc "verified" counts in
      let hops = Aggregate.n_hops agg in
      (rate, Rz_fault.Fault.total_faults report, total, excluded, hops, verified, elapsed)
    in
    let rows = List.map run rates in
    Table.print
      ~header:[ "rate"; "faults"; "routes"; "excluded"; "hops"; "verified"; "secs" ]
      (List.map
         (fun (rate, faults, total, excluded, hops, verified, elapsed) ->
           [ Printf.sprintf "%.2f" rate; string_of_int faults; string_of_int total;
             string_of_int excluded; string_of_int hops;
             Printf.sprintf "%s (%s)" (string_of_int verified)
               (pct (fint verified /. fint (max 1 hops)));
             Printf.sprintf "%.2f" elapsed ])
         rows);
    write_csv "chaos"
      [ "rate"; "faults"; "routes"; "excluded"; "hops"; "verified" ]
      (List.map
         (fun (rate, faults, total, excluded, hops, verified, _) ->
           [ string_of_float rate; string_of_int faults; string_of_int total;
             string_of_int excluded; string_of_int hops; string_of_int verified ])
         rows);
    (* Contract checks. *)
    let base_rate, base_faults, base_total, base_excluded, _, base_verified, _ =
      List.hd rows
    in
    assert (base_rate = 0.0 && base_faults = 0);
    let prev_verified = ref max_int in
    List.iter
      (fun (rate, faults, total, excluded, _, verified, _) ->
        if rate > 0. then assert (faults > 0);
        (* Route accounting is corruption-independent: collector dumps are
           untouched and crashed domains are retried without loss. *)
        assert (total = base_total);
        assert (excluded = base_excluded);
        (* Proportional degradation, not collapse: corruption can only
           lose verified hops, and even at 20% object corruption most of
           the clean world's verdicts must survive (the damage is local
           to the objects hit, within a loose 0.6 factor). *)
        assert (verified <= base_verified);
        assert (fint verified >= 0.6 *. fint base_verified);
        (* Monotone-ish: more corruption never helps. Small slack absorbs
           cross-rate sampling noise in which objects get hit. *)
        assert (fint verified <= 1.02 *. fint !prev_verified);
        prev_verified := min !prev_verified verified)
      rows;
    Printf.printf "\nchaos sweep: contract held at every rate (seed %d)\n" chaos_seed;
    exit 0
  end

(* ------------------------------------------------------------------ *)
(* Verify-throughput benchmark (--bench-verify)                        *)
(* ------------------------------------------------------------------ *)

(* Times the overhauled verification stack (hop-verdict memoization,
   compiled-regex cache, route dedup with multiplicity, work-stealing
   shards) against the closest in-tree ablation of the pre-overhaul
   engine: memoization off, no dedup, one route at a time — what
   [Pipeline.verify] did before this layer existed. The three runs must
   produce identical aggregates (the whole point of the caches is that
   they are invisible in the output); accounting drift or zero throughput
   is a benchmark failure, and [--bench-baseline] extends that check
   across commits. Exits 0 on success, skipping the paper tables. *)
let () =
  match bench_verify_out with
  | None -> ()
  | Some out ->
    section "Verify throughput: overhauled engine vs pre-overhaul ablation";
    let module Json = Rpslyzer.Json in
    let module Engine = Rz_verify.Engine in
    let fail msg =
      Printf.eprintf "BENCH VERIFY FAILED: %s\n" msg;
      exit 1
    in
    (* The workload is [snapshots] consecutive RIB snapshots of the
       world's collector dumps — the shape of the paper's 779M-route run,
       where the same routes recur across collectors and dump times. Route
       dedup and hop memoization exist precisely for that recurrence. *)
    let snapshots = 12 in
    let bench_world =
      { world with
        Rpslyzer.Pipeline.table_dumps =
          List.concat (List.init snapshots (fun _ -> world.Rpslyzer.Pipeline.table_dumps)) }
    in
    let routes =
      Array.of_list
        (List.concat_map
           (fun (d : Rz_bgp.Table_dump.t) -> d.routes)
           bench_world.Rpslyzer.Pipeline.table_dumps)
    in
    let n_total = Array.length routes in
    let fingerprint agg =
      (Aggregate.n_routes agg, Aggregate.n_hops agg,
       Aggregate.counts_classes (Aggregate.overall agg))
    in
    (* All passes are timed with metrics disabled (shared atomic counters
       would serialize the domains); a separate metered pass afterwards
       collects the cache statistics. Shared Db/Rel_db caches are warmed
       first so every pass sees the same state. *)
    Rpslyzer.Obs.disable ();
    Rz_irr.Db.warm_caches world.db;
    Rz_asrel.Rel_db.warm_cones world.rels;
    (* Each pass runs [reps] times and reports the fastest: wall-clock on a
       shared machine is noisy and the minimum is the least contaminated
       estimate of the code's actual cost. *)
    let reps = 3 in
    let timed f =
      let best_t = ref infinity and best_r = ref None in
      for _ = 1 to reps do
        let t0 = Unix.gettimeofday () in
        let r = f () in
        let dt = Unix.gettimeofday () -. t0 in
        if dt < !best_t then begin
          best_t := dt;
          best_r := Some r
        end
      done;
      (Option.get !best_r, !best_t)
    in
    (* pre-overhaul ablation: sequential, memo off, undeduplicated *)
    let (agg_off, excl_off), t_off =
      timed (fun () ->
          let engine =
            Engine.create
              ~config:{ Engine.default_config with memoize = false }
              world.db world.rels
          in
          let agg = Aggregate.create () in
          let excluded = ref 0 in
          Array.iter
            (fun route ->
              match Engine.verify_route engine route with
              | Some report -> Aggregate.add_route_report agg report
              | None -> incr excluded)
            routes;
          (agg, !excluded))
    in
    (* overhauled stack, single domain: dedup + memo, no parallelism *)
    let (agg_on, excl_on), t_on =
      timed (fun () ->
          let agg, `Total total, `Excluded excluded =
            Rpslyzer.Pipeline.verify_parallel ~domains:1 bench_world
          in
          if total <> n_total then fail "single-domain run dropped routes";
          (agg, excluded))
    in
    (* Full parallel stack: dedup + memo + work-stealing across domains.
       This row exercises the stealing/merge/retry machinery and its
       identical-aggregate contract; on boxes with fewer cores than
       [par_domains] it is oversubscribed and its wall-clock is not a
       speedup claim — the 1-domain row is the like-for-like measure. *)
    let par_domains = 4 in
    let (agg_par, excl_par), t_par =
      timed (fun () ->
          let agg, `Total total, `Excluded excluded =
            Rpslyzer.Pipeline.verify_parallel ~domains:par_domains bench_world
          in
          if total <> n_total then fail "parallel run dropped routes";
          (agg, excluded))
    in
    (* metered pass: cache statistics (hit rate, dedup, stealing) *)
    let c_hits = Rpslyzer.Obs.Counter.make "verify.memo_hits" in
    let c_misses = Rpslyzer.Obs.Counter.make "verify.memo_misses" in
    let c_collapsed = Rpslyzer.Obs.Counter.make "dedup.collapsed" in
    let c_steal = Rpslyzer.Obs.Counter.make "steal.batches" in
    Rpslyzer.Obs.enable ();
    Rpslyzer.Obs.reset ();
    ignore (Rpslyzer.Pipeline.verify_parallel ~domains:1 bench_world);
    Rpslyzer.Obs.disable ();
    let memo_hits = Rpslyzer.Obs.Counter.get c_hits in
    let memo_misses = Rpslyzer.Obs.Counter.get c_misses in
    let collapsed = Rpslyzer.Obs.Counter.get c_collapsed in
    let steal_batches = Rpslyzer.Obs.Counter.get c_steal in
    (* identical-output contract *)
    if fingerprint agg_on <> fingerprint agg_off || excl_on <> excl_off then
      fail "memo/dedup changed the aggregate vs the pre-overhaul ablation";
    if fingerprint agg_par <> fingerprint agg_off || excl_par <> excl_off then
      fail "work-stealing parallel run changed the aggregate";
    let rps t = if t > 0. then fint n_total /. t else 0. in
    if rps t_off <= 0. || rps t_on <= 0. || rps t_par <= 0. then
      fail "zero throughput";
    let hit_rate =
      if memo_hits + memo_misses = 0 then 0.
      else fint memo_hits /. fint (memo_hits + memo_misses)
    in
    let speedup = t_off /. t_on in
    Table.print
      ~header:[ "engine"; "secs"; "routes/s"; "speedup" ]
      [ [ "pre-overhaul (no memo, no dedup)"; Printf.sprintf "%.3f" t_off;
          Printf.sprintf "%.0f" (rps t_off); "1.00x" ];
        [ "overhauled, 1 domain"; Printf.sprintf "%.3f" t_on;
          Printf.sprintf "%.0f" (rps t_on); Printf.sprintf "%.2fx" speedup ];
        [ Printf.sprintf "overhauled, %d domains" par_domains;
          Printf.sprintf "%.3f" t_par; Printf.sprintf "%.0f" (rps t_par);
          Printf.sprintf "%.2fx" (t_off /. t_par) ] ];
    if Rz_util.Domains.recommended () < par_domains then
      Printf.printf
        "(%d-domain row oversubscribed: %d core(s) available)\n"
        par_domains
        (Rz_util.Domains.recommended ());
    Printf.printf
      "\n%s routes (%s unique), memo hit rate %s, %d batches stolen\n"
      (Table.commas n_total)
      (Table.commas (n_total - collapsed))
      (pct hit_rate) steal_batches;
    let mode = if quick then "quick" else if big then "big" else "default" in
    let counts = Aggregate.counts_classes (Aggregate.overall agg_off) in
    let accounting =
      Json.Obj
        ([ ("routes", Json.Int n_total);
           ("excluded", Json.Int excl_off);
           ("unique_routes", Json.Int (n_total - collapsed));
           ("hops", Json.Int (Aggregate.n_hops agg_off)) ]
        @ List.map (fun (label, v) -> (label, Json.Int v)) counts)
    in
    let json =
      Json.Obj
        [ ("mode", Json.String mode);
          ("accounting", accounting);
          ( "baseline_engine",
            Json.Obj
              [ ("secs", Json.Float t_off);
                ("routes_per_sec", Json.Float (rps t_off)) ] );
          ( "overhauled",
            Json.Obj
              [ ("secs", Json.Float t_on);
                ("routes_per_sec", Json.Float (rps t_on));
                ("memo_hits", Json.Int memo_hits);
                ("memo_misses", Json.Int memo_misses);
                ("memo_hit_rate", Json.Float hit_rate);
                ("dedup_collapsed", Json.Int collapsed) ] );
          ( "parallel",
            Json.Obj
              [ ("domains", Json.Int par_domains);
                ("secs", Json.Float t_par);
                ("routes_per_sec", Json.Float (rps t_par));
                ("steal_batches", Json.Int steal_batches) ] );
          ("speedup_sequential", Json.Float speedup);
          ("gc", gc_json ()) ]
    in
    let oc = open_out out in
    output_string oc (Json.to_string ~indent:2 json);
    output_string oc "\n";
    close_out oc;
    Printf.printf "(wrote %s)\n" out;
    (match bench_baseline_path with
     | None -> ()
     | Some path ->
       let text =
         let ic = open_in path in
         let s = really_input_string ic (in_channel_length ic) in
         close_in ic;
         s
       in
       (match Json.of_string text with
        | Error e -> fail (Printf.sprintf "baseline %s: %s" path e)
        | Ok base ->
          (match (Json.member "mode" base, Json.member "accounting" base) with
           | Some (Json.String base_mode), Some base_acc ->
             if base_mode <> mode then
               fail
                 (Printf.sprintf "baseline mode %s does not match run mode %s"
                    base_mode mode)
             else if not (Json.equal base_acc accounting) then
               fail
                 (Printf.sprintf
                    "route accounting drifted from baseline %s\nbaseline:  %s\nmeasured: %s"
                    path (Json.to_string base_acc) (Json.to_string accounting))
             else Printf.printf "accounting matches baseline %s\n" path
           | _ -> fail (Printf.sprintf "baseline %s missing mode/accounting" path))));
    exit 0

(* ------------------------------------------------------------------ *)
(* Paper-scale shard-and-merge benchmark (--bench-scale)                *)
(* ------------------------------------------------------------------ *)

(* Times the multi-process shard-and-merge engine (Rz_shard) over a RIB
   replicated to the paper-run shape — >= 10M routes per pass, where the
   same routes recur across collectors and snapshots — against the
   in-process 1-domain oracle. Three hard gates: the route floor, the
   canonical aggregate fingerprint (sharded == oracle, bit for bit), and
   nonzero throughput. The near-linear shard-scaling gate (>= 2.5x at 4
   shards) only applies when the host actually has 4 cores: forked
   workers time-slicing one core measure scheduler fairness, not the
   protocol — the same oversubscription caveat BENCH_verify documents
   for its domain row. The core count is recorded in the payload. *)
let () =
  match bench_scale_out with
  | None -> ()
  | Some out ->
    section "Paper-scale verification: multi-process shard-and-merge";
    let module Json = Rpslyzer.Json in
    let fail msg =
      Printf.eprintf "BENCH SCALE FAILED: %s\n" msg;
      exit 1
    in
    let route_floor = 10_000_000 in
    let base_routes =
      List.fold_left
        (fun acc (d : Rz_bgp.Table_dump.t) -> acc + List.length d.routes)
        0 world.Rpslyzer.Pipeline.table_dumps
    in
    if base_routes = 0 then fail "empty world";
    let snapshots = (route_floor + base_routes - 1) / base_routes in
    let bench_world =
      { world with
        Rpslyzer.Pipeline.table_dumps =
          List.concat
            (List.init snapshots (fun _ -> world.Rpslyzer.Pipeline.table_dumps)) }
    in
    let n_total = base_routes * snapshots in
    Printf.printf "workload: %s routes (%d RIB snapshots of %s)\n"
      (Table.commas n_total) snapshots (Table.commas base_routes);
    if n_total < route_floor then fail "route floor not reached";
    Rpslyzer.Obs.disable ();
    Rz_irr.Db.warm_caches world.Rpslyzer.Pipeline.db;
    Rz_asrel.Rel_db.warm_cones world.Rpslyzer.Pipeline.rels;
    (* Each pass walks >= 10M routes; one rep keeps the quick/CI rule
       affordable, and the gates here are exactness gates (fingerprint,
       floor), not tight perf floors — those need min-of-reps. *)
    let reps = if quick then 1 else 2 in
    let timed f =
      let best_t = ref infinity and best_r = ref None in
      for _ = 1 to reps do
        let t0 = Unix.gettimeofday () in
        let r = f () in
        let dt = Unix.gettimeofday () -. t0 in
        if dt < !best_t then begin
          best_t := dt;
          best_r := Some r
        end
      done;
      (Option.get !best_r, !best_t)
    in
    let run_sharded shards =
      timed (fun () ->
          let agg, `Total total, `Excluded excluded =
            Rz_shard.Shard.verify_sharded ~shards bench_world
          in
          if total <> n_total then
            fail (Printf.sprintf "%d-shard run dropped routes" shards);
          (agg, excluded))
    in
    (* forking passes first: verify_parallel spawns a domain, after which
       the runtime refuses Unix.fork for the life of the process *)
    let (agg_s1, excl_s1), t_s1 = run_sharded 1 in
    let (agg_s4, excl_s4), t_s4 = run_sharded 4 in
    (* in-process oracle: the overhauled single-domain engine *)
    let (agg_oracle, excl_oracle), t_oracle =
      timed (fun () ->
          let agg, `Total total, `Excluded excluded =
            Rpslyzer.Pipeline.verify_parallel ~domains:1 bench_world
          in
          if total <> n_total then fail "oracle dropped routes";
          (agg, excluded))
    in
    (* exact-merge contract: canonical fingerprints, bit for bit *)
    let fp = Aggregate.fingerprint agg_oracle in
    if Aggregate.fingerprint agg_s1 <> fp || excl_s1 <> excl_oracle then
      fail "1-shard aggregate differs from the in-process oracle";
    if Aggregate.fingerprint agg_s4 <> fp || excl_s4 <> excl_oracle then
      fail "4-shard merged aggregate differs from the in-process oracle";
    let rps t = if t > 0. then fint n_total /. t else 0. in
    if rps t_oracle <= 0. || rps t_s1 <= 0. || rps t_s4 <= 0. then
      fail "zero throughput";
    let speedup_shards = t_s1 /. t_s4 in
    let cores = Domain.recommended_domain_count () in
    Table.print
      ~header:[ "engine"; "secs"; "routes/s"; "vs 1 shard" ]
      [ [ "in-process oracle (1 domain)"; Printf.sprintf "%.3f" t_oracle;
          Printf.sprintf "%.0f" (rps t_oracle); "-" ];
        [ "sharded, 1 worker"; Printf.sprintf "%.3f" t_s1;
          Printf.sprintf "%.0f" (rps t_s1); "1.00x" ];
        [ "sharded, 4 workers"; Printf.sprintf "%.3f" t_s4;
          Printf.sprintf "%.0f" (rps t_s4);
          Printf.sprintf "%.2fx" speedup_shards ] ];
    Printf.printf "aggregate fingerprint %s (sharded == oracle)\n" fp;
    if cores >= 4 then begin
      if speedup_shards < 2.5 then
        fail
          (Printf.sprintf
             "4-shard speedup %.2fx below the 2.5x floor on a %d-core host"
             speedup_shards cores)
    end
    else
      Printf.printf
        "(4-worker speedup gate skipped: %d core(s) available, workers \
         time-slice)\n"
        cores;
    let mode = if quick then "quick" else if big then "big" else "default" in
    let counts = Aggregate.counts_classes (Aggregate.overall agg_oracle) in
    let accounting =
      Json.Obj
        ([ ("routes", Json.Int n_total);
           ("excluded", Json.Int excl_oracle);
           ("hops", Json.Int (Aggregate.n_hops agg_oracle));
           ("fingerprint", Json.String fp) ]
        @ List.map (fun (label, v) -> (label, Json.Int v)) counts)
    in
    let json =
      Json.Obj
        [ ("mode", Json.String mode);
          ("accounting", accounting);
          ("route_floor", Json.Int route_floor);
          ("snapshots", Json.Int snapshots);
          ("cores", Json.Int cores);
          ( "oracle",
            Json.Obj
              [ ("secs", Json.Float t_oracle);
                ("routes_per_sec", Json.Float (rps t_oracle)) ] );
          ( "shards_1",
            Json.Obj
              [ ("secs", Json.Float t_s1);
                ("routes_per_sec", Json.Float (rps t_s1)) ] );
          ( "shards_4",
            Json.Obj
              [ ("secs", Json.Float t_s4);
                ("routes_per_sec", Json.Float (rps t_s4)) ] );
          ("speedup_shards", Json.Float speedup_shards);
          ("gc", gc_json ()) ]
    in
    let oc = open_out out in
    output_string oc (Json.to_string ~indent:2 json);
    output_string oc "\n";
    close_out oc;
    Printf.printf "(wrote %s)\n" out;
    (match bench_baseline_path with
     | None -> ()
     | Some path ->
       let text =
         let ic = open_in path in
         let s = really_input_string ic (in_channel_length ic) in
         close_in ic;
         s
       in
       (match Json.of_string text with
        | Error e -> fail (Printf.sprintf "baseline %s: %s" path e)
        | Ok base ->
          (match (Json.member "mode" base, Json.member "accounting" base) with
           | Some (Json.String base_mode), Some base_acc ->
             if base_mode <> mode then
               fail
                 (Printf.sprintf "baseline mode %s does not match run mode %s"
                    base_mode mode)
             else if not (Json.equal base_acc accounting) then
               fail
                 (Printf.sprintf
                    "scale accounting drifted from baseline %s\nbaseline:  %s\nmeasured: %s"
                    path (Json.to_string base_acc) (Json.to_string accounting))
             else Printf.printf "accounting matches baseline %s\n" path
           | _ -> fail (Printf.sprintf "baseline %s missing mode/accounting" path))));
    exit 0

(* ------------------------------------------------------------------ *)
(* Ingestion benchmark (--bench-ingest)                                 *)
(* ------------------------------------------------------------------ *)

(* Times the overhauled ingestion stack (single-pass scanner, sharded
   per-dump lowering with memoized rule/member parsers, winner-scan
   merge) and the IR snapshot cache against the sequential ablation:
   [Reader.parse_string] + [Lower.add_dump] per dump in priority order —
   what [Db.of_dumps] did before this layer existed. Contracts asserted
   here:

     - identical IR: the parallel path at 4 forced domains must be
       byte-identical (Ir_json) to the sequential oracle;
     - parse throughput: the parallel path's parse phase must beat the
       ablation's parser by >= 2x in default/big mode (the single-pass
       scanner supplies that on one core; domain sharding scales it
       further on multicore hosts) — quick mode uses a looser 1.4x
       floor because its dumps are small enough for timer noise;
     - snapshot: loading a snapshot must be >= 5x faster than the cold
       sequential parse (>= 2x in quick mode), and a flipped byte must
       be rejected and fall back to parsing, never silently loaded.

   Measurements interleave the two sides rep by rep (same thermal/noise
   profile) and keep the fastest rep of each. Exits 0 on success. *)
let () =
  match bench_ingest_out with
  | None -> ()
  | Some out ->
    section "Ingestion: parallel sharded parse + snapshot cache vs sequential ablation";
    let module Json = Rpslyzer.Json in
    let module Ingest = Rz_ingest.Ingest in
    let fail msg =
      Printf.eprintf "BENCH INGEST FAILED: %s\n" msg;
      exit 1
    in
    let dumps = world.Rpslyzer.Pipeline.dumps in
    let n_dumps = List.length dumps in
    let bytes = List.fold_left (fun a (_, t) -> a + String.length t) 0 dumps in
    Rpslyzer.Obs.disable ();
    let reps = if quick then 5 else 7 in
    (* interleaved min-of-reps: a() and b() alternate within each rep *)
    let timed_pair a b =
      let best_a = ref infinity and best_b = ref infinity in
      for _ = 1 to reps do
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (a ()));
        let ta = Unix.gettimeofday () -. t0 in
        let t1 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (b ()));
        let tb = Unix.gettimeofday () -. t1 in
        if ta < !best_a then best_a := ta;
        if tb < !best_b then best_b := tb
      done;
      (!best_a, !best_b)
    in
    let par_domains = 4 in
    (* end-to-end: sequential oracle vs the parallel path as shipped
       (requested 4 domains; the pool clamps itself to the host) *)
    let t_seq, t_par =
      timed_pair
        (fun () -> Ingest.ingest_sequential dumps)
        (fun () -> Ingest.ingest ~domains:par_domains dumps)
    in
    (* parse phase only: the ablation's parser vs the parallel path's
       phase A (work-stealing scan over whole files) *)
    let files = Array.of_list dumps in
    let scan_all () =
      let eff = min par_domains (max 1 (Rz_util.Domains.recommended ())) in
      if eff <= 1 then
        Array.iter (fun (_, t) -> ignore (Sys.opaque_identity (Rz_rpsl.Reader.scan_string t))) files
      else begin
        let next = Atomic.make 0 in
        let work () =
          let rec drain () =
            let i = Atomic.fetch_and_add next 1 in
            if i < Array.length files then begin
              ignore (Sys.opaque_identity (Rz_rpsl.Reader.scan_string (snd files.(i))));
              drain ()
            end
          in
          drain ()
        in
        List.iter Domain.join (List.init eff (fun _ -> Domain.spawn work))
      end
    in
    let t_parse_seq, t_parse_par =
      timed_pair
        (fun () ->
          Array.iter
            (fun (_, t) -> ignore (Sys.opaque_identity (Rz_rpsl.Reader.parse_string t)))
            files)
        scan_all
    in
    (* identical-IR contract, at genuinely forced multi-domain execution *)
    let oracle_ir = Ingest.ingest_sequential dumps in
    let oracle = Rz_ir.Ir_json.export_string oracle_ir in
    List.iter
      (fun domains ->
        let got =
          Rz_ir.Ir_json.export_string
            (Ingest.ingest ~domains ~force_domains:true dumps)
        in
        if not (String.equal got oracle) then
          fail (Printf.sprintf "parallel ingest at %d domains is not byte-identical" domains))
      [ 1; par_domains ];
    (* snapshot cache: save, timed load, digest hit, flipped-byte reject *)
    let snap = Filename.temp_file "rz_bench_snapshot" ".snap" in
    let digest = Ingest.dumps_digest dumps in
    let t0 = Unix.gettimeofday () in
    Rz_ir.Ir_snapshot.save snap ~input_digest:digest oracle_ir;
    let t_snap_save = Unix.gettimeofday () -. t0 in
    let snap_bytes = (Unix.stat snap).Unix.st_size in
    let t_snap_load =
      let best = ref infinity in
      for _ = 1 to reps do
        let t0 = Unix.gettimeofday () in
        (match Rz_ir.Ir_snapshot.load snap with
         | Ok _ -> ()
         | Error e -> fail ("snapshot load: " ^ e));
        let dt = Unix.gettimeofday () -. t0 in
        if dt < !best then best := dt
      done;
      !best
    in
    (match Rz_ir.Ir_snapshot.load snap with
     | Ok (d, ir) ->
       if not (String.equal d digest) then fail "snapshot digest drifted";
       if not (String.equal (Rz_ir.Ir_json.export_string ir) oracle) then
         fail "snapshot round-trip is not byte-identical"
     | Error e -> fail ("snapshot load: " ^ e));
    (* flip one byte mid-payload: load must reject, cached ingest must
       fall back to parsing and still produce the oracle IR *)
    let c_rejects = Rpslyzer.Obs.Counter.make "snapshot.rejects" in
    let c_hits = Rpslyzer.Obs.Counter.make "snapshot.hits" in
    let c_misses = Rpslyzer.Obs.Counter.make "snapshot.misses" in
    Rpslyzer.Obs.enable ();
    Rpslyzer.Obs.reset ();
    let corrupt =
      let ic = open_in_bin snap in
      let s = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      let i = Bytes.length s / 2 in
      Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0x40));
      Bytes.to_string s
    in
    let oc = open_out_bin snap in
    output_string oc corrupt;
    close_out oc;
    (match Rz_ir.Ir_snapshot.load snap with
     | Ok _ -> fail "flipped-byte snapshot was silently loaded"
     | Error _ -> ());
    let fallback = Ingest.ingest_cached ~snapshot:snap dumps in
    if not (String.equal (Rz_ir.Ir_json.export_string fallback) oracle) then
      fail "corrupt-snapshot fallback did not reproduce the oracle IR";
    let hit = Ingest.ingest_cached ~snapshot:snap dumps in
    if not (String.equal (Rz_ir.Ir_json.export_string hit) oracle) then
      fail "snapshot-hit load did not reproduce the oracle IR";
    let rejects = Rpslyzer.Obs.Counter.get c_rejects in
    let snap_hits = Rpslyzer.Obs.Counter.get c_hits in
    let snap_misses = Rpslyzer.Obs.Counter.get c_misses in
    Rpslyzer.Obs.disable ();
    if rejects < 1 then fail "flipped byte did not bump snapshot.rejects";
    if snap_misses < 1 then fail "corrupt snapshot did not count as a miss";
    if snap_hits < 1 then fail "rewritten snapshot did not count as a hit";
    Sys.remove snap;
    (* thresholds *)
    let parse_speedup = t_parse_seq /. t_parse_par in
    let parse_floor = if quick then 1.4 else 2.0 in
    if parse_speedup < parse_floor then
      fail
        (Printf.sprintf "parse throughput %.2fx is below the %.1fx floor"
           parse_speedup parse_floor);
    let snap_speedup = t_seq /. t_snap_load in
    let snap_floor = if quick then 2.0 else 5.0 in
    if snap_speedup < snap_floor then
      fail
        (Printf.sprintf "snapshot load %.2fx vs cold parse is below the %.1fx floor"
           snap_speedup snap_floor);
    let mibs t = fint bytes /. 1048576. /. t in
    Table.print
      ~header:[ "path"; "secs"; "MiB/s"; "speedup" ]
      [ [ "sequential ablation (parse+lower)"; Printf.sprintf "%.4f" t_seq;
          Printf.sprintf "%.1f" (mibs t_seq); "1.00x" ];
        [ Printf.sprintf "parallel ingest (<=%d domains)" par_domains;
          Printf.sprintf "%.4f" t_par; Printf.sprintf "%.1f" (mibs t_par);
          Printf.sprintf "%.2fx" (t_seq /. t_par) ];
        [ "parse phase: ablation parser"; Printf.sprintf "%.4f" t_parse_seq;
          Printf.sprintf "%.1f" (mibs t_parse_seq); "1.00x" ];
        [ "parse phase: sharded scanner"; Printf.sprintf "%.4f" t_parse_par;
          Printf.sprintf "%.1f" (mibs t_parse_par);
          Printf.sprintf "%.2fx" parse_speedup ];
        [ "snapshot load"; Printf.sprintf "%.4f" t_snap_load;
          Printf.sprintf "%.1f" (mibs t_snap_load);
          Printf.sprintf "%.2fx" snap_speedup ] ];
    if Rz_util.Domains.recommended () < par_domains then
      Printf.printf
        "(parallel rows clamped to %d core(s); domain sharding adds on multicore)\n"
        (Rz_util.Domains.recommended ());
    Printf.printf
      "\n%d dumps, %s bytes; snapshot %s bytes, saved in %.4fs; identical IR held\n"
      n_dumps (Table.commas bytes) (Table.commas snap_bytes) t_snap_save;
    let mode = if quick then "quick" else if big then "big" else "default" in
    let accounting =
      Json.Obj
        [ ("dumps", Json.Int n_dumps);
          ("bytes", Json.Int bytes);
          ("aut_nums", Json.Int (Hashtbl.length oracle_ir.Rz_ir.Ir.aut_nums));
          ("as_sets", Json.Int (Hashtbl.length oracle_ir.Rz_ir.Ir.as_sets));
          ("routes", Json.Int (Rz_ir.Ir.n_route_objs oracle_ir));
          ("errors", Json.Int (List.length oracle_ir.Rz_ir.Ir.errors));
          ("ir_json_bytes", Json.Int (String.length oracle)) ]
    in
    let json =
      Json.Obj
        [ ("mode", Json.String mode);
          ("accounting", accounting);
          ( "sequential",
            Json.Obj
              [ ("secs", Json.Float t_seq); ("mib_per_sec", Json.Float (mibs t_seq)) ] );
          ( "parallel",
            Json.Obj
              [ ("domains_requested", Json.Int par_domains);
                ("domains_effective",
                 Json.Int (min par_domains (max 1 (Rz_util.Domains.recommended ()))));
                ("secs", Json.Float t_par);
                ("mib_per_sec", Json.Float (mibs t_par));
                ("speedup", Json.Float (t_seq /. t_par)) ] );
          ( "parse_phase",
            Json.Obj
              [ ("ablation_secs", Json.Float t_parse_seq);
                ("sharded_secs", Json.Float t_parse_par);
                ("speedup", Json.Float parse_speedup) ] );
          ( "snapshot",
            Json.Obj
              [ ("bytes", Json.Int snap_bytes);
                ("save_secs", Json.Float t_snap_save);
                ("load_secs", Json.Float t_snap_load);
                ("speedup_vs_cold_parse", Json.Float snap_speedup);
                ("flipped_byte", Json.String "rejected") ] );
          ("identical_ir", Json.Bool true);
          ("gc", gc_json ()) ]
    in
    let oc = open_out out in
    output_string oc (Json.to_string ~indent:2 json);
    output_string oc "\n";
    close_out oc;
    Printf.printf "(wrote %s)\n" out;
    (match bench_baseline_path with
     | None -> ()
     | Some path ->
       let text =
         let ic = open_in path in
         let s = really_input_string ic (in_channel_length ic) in
         close_in ic;
         s
       in
       (match Json.of_string text with
        | Error e -> fail (Printf.sprintf "baseline %s: %s" path e)
        | Ok base ->
          (match (Json.member "mode" base, Json.member "accounting" base) with
           | Some (Json.String base_mode), Some base_acc ->
             if base_mode <> mode then
               fail
                 (Printf.sprintf "baseline mode %s does not match run mode %s"
                    base_mode mode)
             else if not (Json.equal base_acc accounting) then
               fail
                 (Printf.sprintf
                    "ingest accounting drifted from baseline %s\nbaseline:  %s\nmeasured: %s"
                    path (Json.to_string base_acc) (Json.to_string accounting))
             else Printf.printf "accounting matches baseline %s\n" path
           | _ -> fail (Printf.sprintf "baseline %s missing mode/accounting" path))));
    exit 0

(* ------------------------------------------------------------------ *)
(* Streaming benchmark (--bench-stream)                                 *)
(* ------------------------------------------------------------------ *)

(* Sustained updates/sec through the incremental verification service
   (bounded queue, in-place database patches, churn-safe invalidation,
   targeted re-verifies), with the
   contracts that make the number meaningful:

     - differential: the stream's final per-route verdicts must equal a
       from-scratch batch verify of the final RIB on a database built
       afresh from the final IR — the caches must be invisible in the
       output;
     - bounded memory: the queue high-water mark stays within capacity
       and is reported (the Block policy also guarantees losslessness);
     - chaos survival: a rate-1.0 chaos pass must complete with every
       event abandoned and nothing crashed or deadlocked.

   Accounting (event/verdict integers) is deterministic and gated by
   [--bench-baseline]; throughput floats are reported, not gated. *)
let () =
  match bench_stream_out with
  | None -> ()
  | Some out ->
    section "Streaming verification: sustained updates/sec, bounded queue";
    let module Json = Rpslyzer.Json in
    let module S = Rz_stream.Stream in
    let module E = Rz_routegen.Events in
    let fail msg =
      Printf.eprintf "BENCH STREAM FAILED: %s\n" msg;
      exit 1
    in
    let base_routes =
      List.concat_map
        (fun (d : Rz_bgp.Table_dump.t) -> d.routes)
        world.Rpslyzer.Pipeline.table_dumps
    in
    let view = S.view_of world.Rpslyzer.Pipeline.db base_routes in
    let n_events = if quick then 1500 else 4000 in
    let items = E.generate ~seed:42 ~n:n_events ~edit_rate:0.05 view in
    let capacity = 512 in
    let config =
      { S.default_config with
        window = 256;
        queue_capacity = capacity;
        policy = Rz_stream.Bqueue.Block;
        backoff_ms = 0. }
    in
    Rpslyzer.Obs.disable ();
    let ir = Rz_irr.Db.ir world.Rpslyzer.Pipeline.db in
    let rels = world.Rpslyzer.Pipeline.rels in
    let reps = 3 in
    let best_t = ref infinity and best = ref None in
    for _ = 1 to reps do
      let t = S.create ~config ~ir ~rels () in
      let t0 = Unix.gettimeofday () in
      let stats = S.run ~seed:42 t items in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best_t then begin
        best_t := dt;
        best := Some (t, stats)
      end
    done;
    let t, stats = Option.get !best in
    (* contracts *)
    if stats.S.r_processed <> n_events then fail "events were lost";
    if stats.S.r_dropped <> 0 || stats.S.r_sampled <> 0 then
      fail "Block policy dropped events";
    if stats.S.r_hwm > capacity then fail "queue exceeded its capacity";
    let final_reports = S.reports t in
    let batch_engine =
      Rz_verify.Engine.create (Rz_irr.Db.build (Rz_irr.Db.ir (S.db t))) rels
    in
    List.iter
      (fun (route, streamed) ->
        let batch = Rz_verify.Engine.verify_route batch_engine route in
        if streamed <> batch then
          fail
            (Printf.sprintf "incremental verdict differs from batch for %s"
               (Rz_bgp.Route.to_line route)))
      final_reports;
    (* chaos survival: everything fails, nothing crashes *)
    let chaos_config =
      { config with
        chaos = Some (Rz_fault.Fault.plan ~seed:42 ~rate:1.0 ()) }
    in
    let tc = S.create ~config:chaos_config ~ir ~rels () in
    let t0c = Unix.gettimeofday () in
    let chaos_stats = S.run ~seed:42 tc items in
    let t_chaos = Unix.gettimeofday () -. t0c in
    if chaos_stats.S.r_processed <> n_events then fail "chaos run lost events";
    if chaos_stats.S.r_abandoned <> n_events then
      fail "rate-1.0 chaos did not abandon every event";
    if S.rib_routes tc <> [] then fail "abandoned events mutated the RIB";
    let eps t = if t > 0. then fint n_events /. t else 0. in
    if eps !best_t <= 0. then fail "zero throughput";
    let rib = List.length final_reports in
    let routes =
      List.length (List.filter (fun (_, r) -> r <> None) final_reports)
    in
    let counts = Aggregate.zero_counts () in
    List.iter
      (fun (_, report) ->
        Option.iter
          (fun (r : Rz_verify.Report.route_report) ->
            List.iter
              (fun (h : Rz_verify.Report.hop) ->
                Aggregate.counts_add counts h.Rz_verify.Report.status)
              r.Rz_verify.Report.hops)
          report)
      final_reports;
    Table.print
      ~header:[ "pass"; "secs"; "events/s"; "notes" ]
      [ [ "incremental stream (block)"; Printf.sprintf "%.3f" !best_t;
          Printf.sprintf "%.0f" (eps !best_t);
          Printf.sprintf "hwm %d/%d" stats.S.r_hwm capacity ];
        [ "chaos rate 1.0"; Printf.sprintf "%.3f" t_chaos;
          Printf.sprintf "%.0f" (eps t_chaos);
          Printf.sprintf "%d abandoned" chaos_stats.S.r_abandoned ] ];
    Printf.printf
      "\n%s events: %d applied; %d generations, %d invalidations; final rib \
       %d; incremental == batch held\n"
      (Table.commas n_events) stats.S.r_applied (S.generations t)
      (S.invalidated t) rib;
    let mode = if quick then "quick" else if big then "big" else "default" in
    let accounting =
      Json.Obj
        ([ ("events", Json.Int n_events);
           ("applied", Json.Int stats.S.r_applied);
           ("abandoned", Json.Int stats.S.r_abandoned);
           ("rejected", Json.Int stats.S.r_rejected);
           ("generations", Json.Int (S.generations t));
           ("invalidations", Json.Int (S.invalidated t));
           ("rib", Json.Int rib);
           ("routes", Json.Int routes);
           ("excluded", Json.Int (rib - routes)) ]
        @ List.map
            (fun (label, v) -> (label, Json.Int v))
            (Aggregate.counts_classes counts))
    in
    let json =
      Json.Obj
        [ ("mode", Json.String mode);
          ("accounting", accounting);
          ( "stream",
            Json.Obj
              [ ("secs", Json.Float !best_t);
                ("events_per_sec", Json.Float (eps !best_t));
                ("queue_capacity", Json.Int capacity);
                ("queue_hwm", Json.Int stats.S.r_hwm);
                ("window", Json.Int config.S.window) ] );
          ( "chaos",
            Json.Obj
              [ ("rate", Json.Float 1.0);
                ("secs", Json.Float t_chaos);
                ("events_per_sec", Json.Float (eps t_chaos));
                ("abandoned", Json.Int chaos_stats.S.r_abandoned) ] );
          ("incremental_equals_batch", Json.Bool true);
          ("gc", gc_json ()) ]
    in
    let oc = open_out out in
    output_string oc (Json.to_string ~indent:2 json);
    output_string oc "\n";
    close_out oc;
    Printf.printf "(wrote %s)\n" out;
    (match bench_baseline_path with
     | None -> ()
     | Some path ->
       let text =
         let ic = open_in path in
         let s = really_input_string ic (in_channel_length ic) in
         close_in ic;
         s
       in
       (match Json.of_string text with
        | Error e -> fail (Printf.sprintf "baseline %s: %s" path e)
        | Ok base ->
          (match (Json.member "mode" base, Json.member "accounting" base) with
           | Some (Json.String base_mode), Some base_acc ->
             if base_mode <> mode then
               fail
                 (Printf.sprintf "baseline mode %s does not match run mode %s"
                    base_mode mode)
             else if not (Json.equal base_acc accounting) then
               fail
                 (Printf.sprintf
                    "stream accounting drifted from baseline %s\nbaseline:  \
                     %s\nmeasured: %s"
                    path (Json.to_string base_acc) (Json.to_string accounting))
             else Printf.printf "accounting matches baseline %s\n" path
           | _ -> fail (Printf.sprintf "baseline %s missing mode/accounting" path))));
    exit 0

(* ------------------------------------------------------------------ *)
(* Query-service benchmark (--bench-serve)                             *)
(* ------------------------------------------------------------------ *)

(* Sustained queries/sec through the service's shared dispatch path,
   single-threaded against one pinned generation and then with worker
   domains racing live NRTM generation swaps, with the contracts that
   make the numbers meaningful:

     - response accounting (per-shape counts, payload bytes) against the
       generation-1 database is deterministic and gated by
       [--bench-baseline];
     - the concurrent pass must answer every query — generation swaps
       are invisible to readers except through content;
     - replaying the journal as copy-on-write swaps must land on a
       database canonically fingerprint-identical to re-ingesting the
       post-edit registry from scratch (incremental == batch).

   Throughput floats are reported, not gated. *)
let () =
  match bench_serve_out with
  | None -> ()
  | Some out ->
    section "Query service: queries/sec over live generations";
    let module Json = Rpslyzer.Json in
    let module Serve = Rz_serve.Serve in
    let module Generation = Rz_serve.Generation in
    let module Nrtm = Rz_synthirr.Nrtm in
    let fail msg =
      Printf.eprintf "BENCH SERVE FAILED: %s\n" msg;
      exit 1
    in
    Rpslyzer.Obs.disable ();
    let ir = Rz_irr.Db.ir world.Rpslyzer.Pipeline.db in
    (* workload: origin + flattened-cone lookups over every registered
       ASN plus probes into the journal's fresh 198.18/15 range, cycled
       to the target count *)
    let asns =
      Hashtbl.fold (fun asn _ acc -> asn :: acc) ir.Rz_ir.Ir.aut_nums []
      |> List.sort Rz_net.Asn.compare
    in
    let base_queries =
      List.concat_map
        (fun asn ->
          let s = Rz_net.Asn.to_string asn in
          [ "!g" ^ s; "!i" ^ Rz_synthirr.Generate.cone_set_name asn ^ ",1" ])
        asns
      @ [ "!r198.18.0.0/24"; "!r198.18.1.0/24,o"; "!aAS-NOWHERE" ]
    in
    let base = Array.of_list base_queries in
    let n_queries = if quick then 4_000 else 12_000 in
    let workload =
      Array.init n_queries (fun i -> base.(i mod Array.length base))
    in
    let config = { Serve.default_config with query_timeout_ms = 0 } in
    let store = Generation.init ir in
    let db1 = Generation.current store in
    (* accounting pass (untimed): per-shape counts + payload bytes *)
    let data = ref 0 and no_data = ref 0 and not_found = ref 0 in
    let errors = ref 0 and bytes = ref 0 in
    Array.iter
      (fun q ->
        let resp = Serve.dispatch ~config db1 q in
        bytes := !bytes + String.length (Rz_irr.Irrd_query.render resp);
        match resp with
        | Rz_irr.Irrd_query.Data _ -> incr data
        | Rz_irr.Irrd_query.No_data -> incr no_data
        | Rz_irr.Irrd_query.Not_found_key -> incr not_found
        | Rz_irr.Irrd_query.Error_resp _ -> incr errors
        | Rz_irr.Irrd_query.Quit -> fail "workload contains !q")
      workload;
    if !data = 0 then fail "workload produced no data responses";
    (* timed single-threaded pass: reps, take the best *)
    let reps = 3 in
    let best_t = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      Array.iter (fun q -> ignore (Serve.dispatch ~config db1 q)) workload;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best_t then best_t := dt
    done;
    (* concurrent pass: 4 reader domains, main thread swapping live *)
    let n_ops = if quick then 60 else 200 in
    let ops = Nrtm.generate ~seed:5 ~n:n_ops world.Rpslyzer.Pipeline.dumps in
    let batch_size = max 1 ((List.length ops + 3) / 4) in
    let batches =
      let rec chunk acc cur n = function
        | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
        | op :: rest ->
          if n + 1 >= batch_size then chunk (List.rev (op :: cur) :: acc) [] 0 rest
          else chunk acc (op :: cur) (n + 1) rest
      in
      chunk [] [] 0 ops
    in
    let n_readers = 4 in
    let slice r =
      Array.init
        (n_queries / n_readers)
        (fun i -> workload.((r + (i * n_readers)) mod n_queries))
    in
    let t0c = Unix.gettimeofday () in
    let readers =
      List.init n_readers (fun r ->
          Domain.spawn (fun () ->
              let answered = ref 0 in
              Array.iter
                (fun q ->
                  let db = Generation.current store in
                  ignore (Serve.dispatch ~config db q);
                  incr answered)
                (slice r);
              !answered))
    in
    List.iter (fun batch -> ignore (Generation.apply store batch)) batches;
    let answered = List.fold_left (fun acc d -> acc + Domain.join d) 0 readers in
    let t_concurrent = Unix.gettimeofday () -. t0c in
    if answered <> n_readers * (n_queries / n_readers) then
      fail "concurrent pass lost queries";
    let generations = Generation.generation store in
    if generations <> 1 + List.length batches then
      fail "journal batches did not all publish";
    (* incremental == batch: canonical fingerprint equality *)
    let fp_incremental = Generation.fingerprint (Generation.current store) in
    let fp_batch =
      Generation.fingerprint
        (Rz_irr.Db.of_dumps
           (Nrtm.apply_to_dumps ops world.Rpslyzer.Pipeline.dumps))
    in
    if fp_incremental <> fp_batch then
      fail "generation swaps diverged from batch re-ingest";
    (* scrape-under-load: the [!s] exposition snapshots the whole
       registry and renders the text format inside the same guarded
       dispatch as any query, so it has a cost worth watching. Obs is
       enabled for this pass only (the throughput passes above run
       uninstrumented): ordinary queries warm the serve.* metrics, one
       exposition is strict-parsed, per-call cost is timed
       single-threaded, and then [!s] latency is sampled while
       [n_readers] domains hammer the ordinary workload against the
       same final generation. Call counts and the parse verdict are
       deterministic and ride the gated accounting; costs and
       quantiles are reported, not gated. *)
    let db_final = Generation.current store in
    Rpslyzer.Obs.enable ();
    Rpslyzer.Obs.reset ();
    let stats () =
      Rpslyzer.Obs.to_prometheus (Rpslyzer.Obs.Registry.snapshot ())
    in
    let scrape_once () =
      match Serve.dispatch ~config ~stats db_final "!s" with
      | Rz_irr.Irrd_query.Data payload -> payload
      | _ -> fail "!s did not answer Data under a stats closure"
    in
    Array.iter (fun q -> ignore (Serve.dispatch ~config db_final q)) (slice 0);
    (match Rpslyzer.Obs.parse_prometheus (scrape_once ()) with
     | Error e -> fail ("!s exposition rejected by the strict parser: " ^ e)
     | Ok [] -> fail "!s exposition parsed to zero samples"
     | Ok _ -> ());
    let scrape_calls = if quick then 400 else 1_500 in
    let t0s = Unix.gettimeofday () in
    for _ = 1 to scrape_calls do
      ignore (scrape_once ())
    done;
    let t_scrape = Unix.gettimeofday () -. t0s in
    let scrape_ns_per_call = t_scrape *. 1e9 /. fint scrape_calls in
    let rslices = Array.init n_readers slice in
    let stop_readers = Atomic.make false in
    let scrape_readers =
      List.init n_readers (fun r ->
          Domain.spawn (fun () ->
              let sl = rslices.(r) in
              let n = Array.length sl in
              let i = ref 0 and answered = ref 0 in
              while not (Atomic.get stop_readers) do
                ignore (Serve.dispatch ~config db_final sl.(!i mod n));
                incr i;
                incr answered
              done;
              !answered))
    in
    let lat = Array.make scrape_calls 0.0 in
    let t0l = Unix.gettimeofday () in
    for i = 0 to scrape_calls - 1 do
      let t0 = Rpslyzer.Obs.now_ns () in
      ignore (scrape_once ());
      lat.(i) <- float_of_int (Rpslyzer.Obs.now_ns () - t0)
    done;
    let t_scrape_loaded = Unix.gettimeofday () -. t0l in
    Atomic.set stop_readers true;
    let load_queries =
      List.fold_left (fun acc d -> acc + Domain.join d) 0 scrape_readers
    in
    if load_queries = 0 then fail "scrape-under-load readers answered nothing";
    Rpslyzer.Obs.disable ();
    Array.sort compare lat;
    let pct q =
      lat.(min (scrape_calls - 1) (int_of_float (q *. fint scrape_calls)))
    in
    let qps t n = if t > 0. then fint n /. t else 0. in
    Table.print
      ~header:[ "pass"; "secs"; "queries/s"; "notes" ]
      [ [ "dispatch (1 thread)"; Printf.sprintf "%.3f" !best_t;
          Printf.sprintf "%.0f" (qps !best_t n_queries);
          Printf.sprintf "%d queries" n_queries ];
        [ Printf.sprintf "dispatch (%d domains + swaps)" n_readers;
          Printf.sprintf "%.3f" t_concurrent;
          Printf.sprintf "%.0f" (qps t_concurrent answered);
          Printf.sprintf "%d swaps live" (List.length batches) ];
        [ "scrape !s (1 thread)"; Printf.sprintf "%.3f" t_scrape;
          Printf.sprintf "%.0f" (qps t_scrape scrape_calls);
          Printf.sprintf "%.0f ns/exposition" scrape_ns_per_call ];
        [ Printf.sprintf "scrape !s (%d-domain load)" n_readers;
          Printf.sprintf "%.3f" t_scrape_loaded;
          Printf.sprintf "%.0f" (qps t_scrape_loaded scrape_calls);
          Printf.sprintf "p50 %.0f ns, p99 %.0f ns" (pct 0.5) (pct 0.99) ] ];
    Printf.printf
      "\n%s queries: %d data, %d no-data, %d not-found, %d error; %s response \
       bytes; %d generations; incremental == batch held; %d scrapes \
       strict-parsed\n"
      (Table.commas n_queries) !data !no_data !not_found !errors
      (Table.commas !bytes) generations scrape_calls;
    let mode = if quick then "quick" else if big then "big" else "default" in
    let accounting =
      Json.Obj
        [ ("queries", Json.Int n_queries);
          ("data", Json.Int !data);
          ("no_data", Json.Int !no_data);
          ("not_found", Json.Int !not_found);
          ("error", Json.Int !errors);
          ("response_bytes", Json.Int !bytes);
          ("journal_ops", Json.Int (List.length ops));
          ("journal_batches", Json.Int (List.length batches));
          ("generations", Json.Int generations);
          ("scrape_calls", Json.Int scrape_calls);
          ("scrape_readers", Json.Int n_readers);
          ("scrape_parse_ok", Json.Bool true) ]
    in
    let json =
      Json.Obj
        [ ("mode", Json.String mode);
          ("accounting", accounting);
          ( "serve",
            Json.Obj
              [ ("secs", Json.Float !best_t);
                ("queries_per_sec", Json.Float (qps !best_t n_queries)) ] );
          ( "concurrent",
            Json.Obj
              [ ("readers", Json.Int n_readers);
                ("secs", Json.Float t_concurrent);
                ("queries_per_sec", Json.Float (qps t_concurrent answered));
                ("swaps", Json.Int (List.length batches)) ] );
          ( "scrape",
            Json.Obj
              [ ("calls", Json.Int scrape_calls);
                ("exposition_ns_per_call", Json.Float scrape_ns_per_call);
                ("under_load_p50_ns", Json.Float (pct 0.5));
                ("under_load_p99_ns", Json.Float (pct 0.99));
                ("reader_queries_during_scrapes", Json.Int load_queries) ] );
          ("incremental_equals_batch", Json.Bool true);
          ("gc", gc_json ()) ]
    in
    let oc = open_out out in
    output_string oc (Json.to_string ~indent:2 json);
    output_string oc "\n";
    close_out oc;
    Printf.printf "(wrote %s)\n" out;
    (match bench_baseline_path with
     | None -> ()
     | Some path ->
       let text =
         let ic = open_in path in
         let s = really_input_string ic (in_channel_length ic) in
         close_in ic;
         s
       in
       (match Json.of_string text with
        | Error e -> fail (Printf.sprintf "baseline %s: %s" path e)
        | Ok base ->
          (match (Json.member "mode" base, Json.member "accounting" base) with
           | Some (Json.String base_mode), Some base_acc ->
             if base_mode <> mode then
               fail
                 (Printf.sprintf "baseline mode %s does not match run mode %s"
                    base_mode mode)
             else if not (Json.equal base_acc accounting) then
               fail
                 (Printf.sprintf
                    "serve accounting drifted from baseline %s\nbaseline:  \
                     %s\nmeasured: %s"
                    path (Json.to_string base_acc) (Json.to_string accounting))
             else Printf.printf "accounting matches baseline %s\n" path
           | _ -> fail (Printf.sprintf "baseline %s missing mode/accounting" path))));
    exit 0

let usage =
  let t0 = Unix.gettimeofday () in
  let u = Rpslyzer.Pipeline.usage world in
  Printf.printf "usage stats computed in %.2fs\n" (Unix.gettimeofday () -. t0);
  u

let agg, n_total_routes, n_excluded =
  let t0 = Unix.gettimeofday () in
  let agg, `Total total, `Excluded excluded = Rpslyzer.Pipeline.verify world in
  Printf.printf "verified %s routes in %.2fs\n" (Table.commas total)
    (Unix.gettimeofday () -. t0);
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
(* Performance (Section 3 / Section 5 "Performance" paragraphs)         *)
(* ------------------------------------------------------------------ *)

let performance () =
  section "Performance (paper: 13 IRRs parsed < 5 min; 779M routes in 2h49m)";
  (* parse throughput *)
  let bytes =
    List.fold_left (fun acc (_, text) -> acc + String.length text) 0 world.dumps
  in
  let t0 = Unix.gettimeofday () in
  let reps = if quick then 3 else 10 in
  for _ = 1 to reps do
    ignore (Rz_irr.Db.of_dumps world.dumps)
  done;
  let parse_s = (Unix.gettimeofday () -. t0) /. fint reps in
  Printf.printf "parse+index %s of RPSL: %.3fs (%.1f MiB/s)\n"
    (Printf.sprintf "%.1f KiB" (fint bytes /. 1024.))
    parse_s
    (fint bytes /. 1048576. /. parse_s);
  (* verification throughput *)
  let routes =
    List.concat_map (fun (d : Rz_bgp.Table_dump.t) -> d.routes) world.table_dumps
  in
  let engine = Rz_verify.Engine.create world.db world.rels in
  let t0 = Unix.gettimeofday () in
  List.iter (fun r -> ignore (Rz_verify.Engine.verify_route engine r)) routes;
  let verify_s = Unix.gettimeofday () -. t0 in
  Printf.printf "verify %s routes: %.3fs (%s routes/s, 1 core)\n"
    (Table.commas (List.length routes))
    verify_s
    (Table.commas (int_of_float (fint (List.length routes) /. verify_s)));
  let cores = Rz_util.Domains.recommended () in
  if cores <= 1 then
    print_endline
      "(single-core environment: skipping the multi-domain measurement;\n\
       \ Pipeline.verify_parallel shards routes across OCaml 5 domains for\n\
       \ the paper's 128-core setting — equivalence with the sequential\n\
       \ verifier is covered by the test suite)"
  else begin
    let domains = max 2 (min 8 cores) in
    (* warm the shared caches outside the timed window, as a long-running
       deployment would *)
    Rz_irr.Db.warm_caches world.db;
    Rz_asrel.Rel_db.warm_cones world.rels;
    let t0 = Unix.gettimeofday () in
    let _ = Rpslyzer.Pipeline.verify_parallel ~domains world in
    let par_s = Unix.gettimeofday () -. t0 in
    Printf.printf
      "verify %s routes: %.3fs (%s routes/s, %d domains — the paper used 128 cores)\n"
      (Table.commas (List.length routes))
      par_s
      (Table.commas (int_of_float (fint (List.length routes) /. par_s)))
      domains
  end

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

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (incl. DESIGN.md ablations)                *)
(* ------------------------------------------------------------------ *)

let bechamel_benches () =
  section "Bechamel micro-benchmarks";
  let open Bechamel in
  let ripe_text = List.assoc "RIPE" world.dumps in
  let sample_routes =
    let all =
      List.concat_map (fun (d : Rz_bgp.Table_dump.t) -> d.routes) world.table_dumps
    in
    let arr = Array.of_list all in
    Array.sub arr 0 (min 200 (Array.length arr))
  in
  let engine = Rz_verify.Engine.create world.db world.rels in
  let regex =
    match Rz_aspath.Regex_parse.parse "^AS1 [AS2 AS3]* AS4+ .? AS5$" with
    | Ok ast -> ast
    | Error e -> failwith e
  in
  let regex_path = [| 1; 2; 3; 2; 4; 4; 9; 5 |] in
  (* a set with members for the flattening benches *)
  let some_set =
    let ir = Rz_irr.Db.ir world.db in
    let best = ref None in
    Hashtbl.iter
      (fun _ (s : Rz_ir.Ir.as_set) ->
        if s.member_sets <> [] then
          match !best with
          | None -> best := Some s.name
          | Some _ -> ())
      ir.as_sets;
    Option.value ~default:"AS-DEEP-1-1" !best
  in
  (* naive (memo-less) flattening for the ablation *)
  let naive_flatten name =
    let ir = Rz_irr.Db.ir world.db in
    let rec go name visiting acc =
      let key = Rz_rpsl.Set_name.canonical name in
      if List.mem key visiting then acc
      else
        match Hashtbl.find_opt ir.as_sets key with
        | None -> acc
        | Some set ->
          let acc = List.fold_left (fun acc a -> a :: acc) acc set.member_asns in
          List.fold_left (fun acc child -> go child (key :: visiting) acc) acc
            set.member_sets
    in
    go name [] []
  in
  (* linear route scan for the trie ablation *)
  let all_routes_list =
    let ir = Rz_irr.Db.ir world.db in
    List.rev (Rz_ir.Ir.fold_routes ir ~init:[] ~f:(fun acc r -> r :: acc))
  in
  let probe_prefix =
    match all_routes_list with
    | (r : Rz_ir.Ir.route_obj) :: _ -> r.prefix
    | [] -> Rz_net.Prefix.of_string_exn "192.0.2.0/24"
  in
  let tests =
    [ Test.make ~name:"table1:parse-ripe-dump"
        (Staged.stage (fun () -> ignore (Rz_rpsl.Reader.parse_string ripe_text)));
      Test.make ~name:"figure1:rules-ccdf"
        (Staged.stage (fun () ->
             ignore (Stats_util.ccdf_at (List.map snd usage.rules_per_aut_num) [ 1; 10; 100 ])));
      Test.make ~name:"figures2-6:verify-200-routes"
        (Staged.stage (fun () ->
             Array.iter (fun r -> ignore (Rz_verify.Engine.verify_route engine r)) sample_routes));
      Test.make ~name:"aspath:backtracking-matcher"
        (Staged.stage (fun () -> ignore (Rz_aspath.Regex_match.matches regex regex_path)));
      Test.make ~name:"ablation:cartesian-product-matcher"
        (Staged.stage (fun () ->
             ignore (Rz_aspath.Regex_match.matches_product ~limit:5_000_000 regex regex_path)));
      (let compiled = Rz_aspath.Regex_nfa.compile regex in
       Test.make ~name:"aspath:nfa-subset-simulation"
         (Staged.stage (fun () -> ignore (Rz_aspath.Regex_nfa.matches compiled regex_path))));
      Test.make ~name:"irr:flatten-as-set-memoized"
        (Staged.stage (fun () -> ignore (Rz_irr.Db.flatten_as_set world.db some_set)));
      Test.make ~name:"ablation:flatten-as-set-naive"
        (Staged.stage (fun () -> ignore (naive_flatten some_set)));
      Test.make ~name:"irr:trie-covering-lookup"
        (Staged.stage (fun () -> ignore (Rz_irr.Db.covering_routes world.db probe_prefix)));
      Test.make ~name:"ablation:linear-route-scan"
        (Staged.stage (fun () ->
             ignore
               (List.filter
                  (fun (r : Rz_ir.Ir.route_obj) -> Rz_net.Prefix.contains r.prefix probe_prefix)
                  all_routes_list))) ]
  in
  let grouped = Test.make_grouped ~name:"rpslyzer" tests in
  let quota = if quick then Time.second 0.05 else Time.second 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | _ -> nan
      in
      let pretty =
        if Float.is_nan estimate then "n/a"
        else if estimate > 1e9 then Printf.sprintf "%.2f s" (estimate /. 1e9)
        else if estimate > 1e6 then Printf.sprintf "%.2f ms" (estimate /. 1e6)
        else if estimate > 1e3 then Printf.sprintf "%.2f us" (estimate /. 1e3)
        else Printf.sprintf "%.0f ns" estimate
      in
      rows := [ name; pretty ] :: !rows)
    results;
  Table.print ~header:[ "benchmark"; "time/run" ] (List.sort compare !rows)

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
  performance ();
  security_comparison ();
  future_work_analytics ();
  evolution ();
  metrics_section ();
  bechamel_benches ();
  print_newline ()
