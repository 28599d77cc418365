(* Unit and concurrency tests for the rz_obs observability layer:
   counter/histogram/span semantics, JSON round-trip through Rz_json,
   and a multi-domain stress test proving no increments are lost under
   Domain.spawn fan-out (the registry's core safety claim, relied on by
   the serve workers and the stream pipeline). *)

module Obs = Rz_obs.Obs
module Json = Rz_json.Json

(* Every test runs against a clean, enabled registry and leaves the
   process-wide flag off so the other suites stay uninstrumented. *)
let with_metrics f () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect f ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())

(* ---------------- counters ---------------- *)

let test_counter_basics () =
  let c = Obs.Counter.make "test.counter_basics" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.get c);
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "incr + add" 42 (Obs.Counter.get c);
  Alcotest.(check string) "name" "test.counter_basics" (Obs.Counter.name c);
  (* make is idempotent: a second handle aliases the same cell *)
  let c' = Obs.Counter.make "test.counter_basics" in
  Obs.Counter.incr c';
  Alcotest.(check int) "same underlying counter" 43 (Obs.Counter.get c)

let test_counter_disabled_noop () =
  let c = Obs.Counter.make "test.counter_disabled" in
  Obs.disable ();
  Obs.Counter.incr c;
  Obs.Counter.add c 10;
  Obs.enable ();
  Alcotest.(check int) "disabled increments dropped" 0 (Obs.Counter.get c)

let test_reset () =
  let c = Obs.Counter.make "test.counter_reset" in
  Obs.Counter.add c 7;
  let h = Obs.Histogram.make "test.hist_reset" in
  Obs.Histogram.observe h 5.0;
  Obs.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Obs.Counter.get c);
  Alcotest.(check int) "histogram zeroed" 0 (Obs.Histogram.count h)

(* ---------------- histograms ---------------- *)

(* The bucket growth factor obs.mli states: a quantile lies within one
   factor of it of the exact value. *)
let g = Float.pow 2.0 0.25

let test_histogram_quantiles () =
  let h = Obs.Histogram.make "test.hist_quantiles" in
  for v = 1 to 1000 do
    Obs.Histogram.observe h (float_of_int v)
  done;
  Alcotest.(check int) "count" 1000 (Obs.Histogram.count h);
  let within_bucket ~expect got =
    got >= expect /. g && got <= expect *. g
  in
  Alcotest.(check bool) "p50 ~ 500" true
    (within_bucket ~expect:500.0 (Obs.Histogram.quantile h 0.5));
  Alcotest.(check bool) "p90 ~ 900" true
    (within_bucket ~expect:900.0 (Obs.Histogram.quantile h 0.9));
  Alcotest.(check bool) "p0 ~ 1" true
    (within_bucket ~expect:1.0 (Obs.Histogram.quantile h 0.0));
  Alcotest.(check bool) "p100 ~ 1000" true
    (within_bucket ~expect:1000.0 (Obs.Histogram.quantile h 1.0))

let test_histogram_constant_stream () =
  let h = Obs.Histogram.make "test.hist_constant" in
  for _ = 1 to 50 do
    Obs.Histogram.observe h 1024.0
  done;
  List.iter
    (fun q ->
      let est = Obs.Histogram.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f within one bucket of 1024" q)
        true
        (est >= 1024.0 /. g && est <= 1024.0 *. g))
    [ 0.0; 0.25; 0.5; 0.99; 1.0 ]

let test_histogram_underflow_and_empty () =
  let h = Obs.Histogram.make "test.hist_underflow" in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Obs.Histogram.quantile h 0.5);
  Obs.Histogram.observe h 0.25;
  Obs.Histogram.observe h (-3.0);
  Alcotest.(check int) "underflow counted" 2 (Obs.Histogram.count h);
  Alcotest.(check bool) "underflow representative < 1" true
    (Obs.Histogram.quantile h 0.5 < 1.0)

(* Degenerate-input pins for Histogram.quantile: these exact semantics
   are documented in obs.mli and relied on by metrics consumers — an
   empty histogram is 0.0 at every q, a single observation collapses
   every q (including out-of-range and NaN, which clamp) to its bucket
   representative, q=0/q=1 are the lowest/highest occupied buckets, and
   the underflow bucket's representative is the 0.5 sentinel. *)
let test_quantile_degenerate_pins () =
  let h = Obs.Histogram.make "test.hist_degenerate" in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0)) "empty histogram -> 0.0" 0.0
        (Obs.Histogram.quantile h q))
    [ -1.0; 0.0; 0.5; 1.0; 2.0; Float.nan ];
  Obs.Histogram.observe h 100.0;
  let rep = Obs.Histogram.quantile h 0.5 in
  Alcotest.(check bool) "single observation lands in its bucket" true
    (rep >= 100.0 /. g && rep <= 100.0 *. g);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "single observation: q=%.2f collapses" q)
        rep (Obs.Histogram.quantile h q))
    [ 0.0; 0.25; 1.0; -3.0; 7.0; Float.nan ]

let test_quantile_extreme_qs () =
  let h = Obs.Histogram.make "test.hist_extreme_qs" in
  Obs.Histogram.observe h 1.0;
  Obs.Histogram.observe h 1000.0;
  let q0 = Obs.Histogram.quantile h 0.0 in
  let q1 = Obs.Histogram.quantile h 1.0 in
  Alcotest.(check bool) "q=0 is the lowest occupied bucket" true
    (q0 >= 1.0 /. g && q0 <= 1.0 *. g);
  Alcotest.(check bool) "q=1 is the highest occupied bucket" true
    (q1 >= 1000.0 /. g && q1 <= 1000.0 *. g);
  Alcotest.(check (float 0.0)) "q>1 clamps to q=1" q1
    (Obs.Histogram.quantile h 42.0);
  Alcotest.(check (float 0.0)) "q<0 clamps to q=0" q0
    (Obs.Histogram.quantile h (-1.0));
  Alcotest.(check (float 0.0)) "NaN q behaves as q=0" q0
    (Obs.Histogram.quantile h Float.nan);
  let hu = Obs.Histogram.make "test.hist_underflow_only" in
  Obs.Histogram.observe hu 0.0;
  Obs.Histogram.observe hu (-5.0);
  Alcotest.(check (float 0.0)) "underflow-only stream reports the 0.5 sentinel"
    0.5 (Obs.Histogram.quantile hu 0.5)

(* ---------------- rolling windows ---------------- *)

let ns = 1_000_000_000

let test_window_rolling () =
  (* 12 slots of 5s: a 60-second rolling window, driven on virtual time *)
  let w = Obs.Window.make "test.win_roll" in
  let slot = 5 * ns in
  let t0 = 100 * ns in
  Obs.Window.observe ~now_ns:t0 w 10.0;
  Obs.Window.observe ~now_ns:t0 w 10.0;
  Obs.Window.observe ~now_ns:(t0 + slot) w 1000.0;
  Obs.Window.observe ~now_ns:(t0 + (11 * slot)) w 1000.0;
  Alcotest.(check int) "all four in window" 4
    (Obs.Window.total ~now_ns:(t0 + (11 * slot)) w);
  Alcotest.(check (float 1e-9)) "rate = total / span" (4.0 /. 60.0)
    (Obs.Window.rate ~now_ns:(t0 + (11 * slot)) w);
  let p50 = Obs.Window.quantile ~now_ns:(t0 + (11 * slot)) w 0.5 in
  let p99 = Obs.Window.quantile ~now_ns:(t0 + (11 * slot)) w 0.99 in
  Alcotest.(check bool) "rolling p50 in the 10.0 bucket" true
    (p50 >= 10.0 /. g && p50 <= 10.0 *. g);
  Alcotest.(check bool) "rolling p99 in the 1000.0 bucket" true
    (p99 >= 1000.0 /. g && p99 <= 1000.0 *. g);
  (* one slot later the t0 slot has rolled out of the window *)
  Alcotest.(check int) "t0 slot expired" 2
    (Obs.Window.total ~now_ns:(t0 + (12 * slot)) w);
  Alcotest.(check (float 1e-9)) "rate follows expiry" (2.0 /. 60.0)
    (Obs.Window.rate ~now_ns:(t0 + (12 * slot)) w);
  (* far future: everything expired, quantile degenerates like an empty
     histogram *)
  Alcotest.(check int) "all expired" 0 (Obs.Window.total ~now_ns:(t0 + (23 * slot)) w);
  Alcotest.(check (float 0.0)) "empty window quantile" 0.0
    (Obs.Window.quantile ~now_ns:(t0 + (23 * slot)) w 0.5);
  (* make is idempotent: a second make returns the same window *)
  Alcotest.(check bool) "second make is the same window" true
    (Obs.Window.make "test.win_roll" == w)

(* ---------------- scrape-vs-observe race ---------------- *)

(* Regression pin for the torn (count, buckets) read: three writer
   domains hammer a histogram and a window with a single value while the
   main domain scrapes. Every quantile read must be either 0.0 (nothing
   in the copy yet) or exactly that value's bucket representative — a
   rank computed from a count inconsistent with the bucket copy would
   run past the occupied bucket. Every full Prometheus scrape must
   strict-parse. *)
let test_scrape_under_observe_stress () =
  let h = Obs.Histogram.make "test.scrape_stress.hist" in
  let w = Obs.Window.make "test.scrape_stress.win" in
  (* the expected representative, from an isolated single observation *)
  let probe = Obs.Histogram.make "test.scrape_stress.probe" in
  Obs.Histogram.observe probe 100.0;
  let rep = Obs.Histogram.quantile probe 0.5 in
  let stop = Atomic.make false in
  let writers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              Obs.Histogram.observe h 100.0;
              Obs.Window.observe w 100.0
            done))
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      List.iter Domain.join writers)
    (fun () ->
      for i = 1 to 2000 do
        List.iter
          (fun q ->
            let est = Obs.Histogram.quantile h q in
            if not (est = 0.0 || est = rep) then
              Alcotest.failf "torn histogram quantile: q=%.2f read %.17g" q est;
            let west = Obs.Window.quantile w q in
            if not (west = 0.0 || west = rep) then
              Alcotest.failf "torn window quantile: q=%.2f read %.17g" q west)
          [ 0.0; 0.5; 0.99; 1.0 ];
        if i mod 100 = 0 then
          match Obs.parse_prometheus (Obs.to_prometheus (Obs.Registry.snapshot ())) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "scrape under load does not parse: %s" e
      done)

(* ---------------- prometheus exposition ---------------- *)

let find_sample name samples =
  match
    List.find_opt (fun (s : Obs.prom_sample) -> s.Obs.p_name = name) samples
  with
  | Some s -> s.Obs.p_value
  | None -> Alcotest.failf "sample %s missing from exposition" name

let test_prometheus_roundtrip () =
  let c = Obs.Counter.make "test.prom.counter" in
  Obs.Counter.add c 42;
  let g = Obs.Gauge.make "test.prom.gauge" in
  Obs.Gauge.set g (-7);
  let h = Obs.Histogram.make "test.prom.hist" in
  List.iter (Obs.Histogram.observe h) [ 3.0; 700.0; 12_345.0 ];
  let w = Obs.Window.make "test.prom.win" in
  Obs.Window.observe w 100.0;
  Obs.Span.with_ "test.prom.span" (fun () -> ());
  Obs.Meta.set "test_key" (Json.String "test value");
  let text = Obs.to_prometheus (Obs.Registry.snapshot ()) in
  match Obs.parse_prometheus text with
  | Error e -> Alcotest.failf "own exposition rejected: %s\n%s" e text
  | Ok samples ->
    Alcotest.(check (float 0.0)) "counter" 42.0
      (find_sample "test_prom_counter" samples);
    Alcotest.(check (float 0.0)) "negative gauge" (-7.0)
      (find_sample "test_prom_gauge" samples);
    Alcotest.(check (float 0.0)) "histogram count" 3.0
      (find_sample "test_prom_hist_count" samples);
    let inf_bucket =
      List.find_opt
        (fun (s : Obs.prom_sample) ->
          s.Obs.p_name = "test_prom_hist_bucket"
          && List.assoc_opt "le" s.Obs.p_labels = Some "+Inf")
        samples
    in
    (match inf_bucket with
     | Some s -> Alcotest.(check (float 0.0)) "+Inf bucket = count" 3.0 s.Obs.p_value
     | None -> Alcotest.fail "+Inf bucket missing");
    Alcotest.(check (float 0.0)) "window count gauge" 1.0
      (find_sample "test_prom_win_window_count" samples);
    Alcotest.(check (float 0.0)) "span count" 1.0
      (find_sample "test_prom_span_span_count" samples);
    (* meta rides as comments, invisible to the sample list but present *)
    Alcotest.(check bool) "meta comment present" true
      (List.exists
         (fun line ->
           String.length line > 7 && String.sub line 0 7 = "# meta "
           && Option.is_some (String.index_opt line 'k'))
         (String.split_on_char '\n' text))

let test_parse_prometheus_rejects () =
  List.iter
    (fun (label, text) ->
      match Obs.parse_prometheus text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parser accepted %s" label)
    [ ("sample without TYPE", "foo 1\n");
      ("timestamped sample", "# TYPE foo counter\nfoo 1 1234567\n");
      ("duplicate TYPE", "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n");
      ("unquoted label value", "# TYPE foo counter\nfoo{bar=baz} 1\n");
      ("bad metric name", "# TYPE 9foo counter\n9foo 1\n");
      ("bad value", "# TYPE foo counter\nfoo one\n");
      ("unknown TYPE kind", "# TYPE foo enum\nfoo 1\n");
      ( "histogram cumulative decrease",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n\
         h_sum 1\nh_count 3\n" );
      ( "histogram +Inf != count",
        "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 0\nh_count 4\n" );
      ( "histogram without +Inf",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_sum 0\nh_count 3\n" ) ];
  (* and a hand-written exposition with escapes and +Inf values parses *)
  match
    Obs.parse_prometheus
      "# HELP free text\n# TYPE foo gauge\nfoo{a=\"b\\\"c\",d=\"e\"} +Inf\n"
  with
  | Ok [ s ] ->
    Alcotest.(check string) "escaped label" "b\"c" (List.assoc "a" s.Obs.p_labels);
    Alcotest.(check bool) "+Inf value" true (s.Obs.p_value = Float.infinity)
  | Ok _ -> Alcotest.fail "expected exactly one sample"
  | Error e -> Alcotest.failf "valid exposition rejected: %s" e

(* ---------------- README metrics table drift ---------------- *)

(* Every counter, gauge, histogram, and window any linked library
   registers must appear (backticked) in README.md's metrics reference
   table. Names the test suites register for themselves (the "test."
   prefix) and bench-only names are exempt. A failure here means a
   metric shipped without documentation — add a row to the README
   table. *)
let test_readme_metrics_table () =
  let readme =
    (* cwd is _build/default/test under `dune runtest`, the workspace
       root under `dune exec test/test_main.exe` *)
    let path =
      List.find_opt Sys.file_exists [ "../README.md"; "README.md" ]
      |> Option.value ~default:"../README.md"
    in
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let contains needle =
    let n = String.length needle and m = String.length readme in
    let rec go i = i + n <= m && (String.sub readme i n = needle || go (i + 1)) in
    go 0
  in
  let prefixed p name =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  let snap = Obs.Registry.snapshot () in
  let registered =
    List.map fst (Obs.Registry.counters snap) @ List.map fst (Obs.Registry.gauges snap)
  in
  (* histogram and window names via the JSON rendering (the "histograms"
     and "windows" section keys: the registry exposes no direct listing) *)
  let section_names section =
    match Obs.Registry.to_json snap with
    | Json.Obj fields -> (
      match List.assoc_opt section fields with
      | Some (Json.Obj rows) -> List.map fst rows
      | _ -> [])
    | _ -> []
  in
  let hist_names = section_names "histograms" @ section_names "windows" in
  let missing =
    List.filter
      (fun name ->
        (not (prefixed "test." name))
        && (not (prefixed "bench." name))
        && not (contains (Printf.sprintf "`%s`" name)))
      (registered @ hist_names)
  in
  if missing <> [] then
    Alcotest.failf
      "metrics missing from the README reference table: %s"
      (String.concat ", " (List.sort_uniq compare missing))

(* ---------------- spans ---------------- *)

let test_span_nesting () =
  Alcotest.(check int) "depth 0 outside" 0 (Obs.Span.depth ());
  let inner_depth = ref (-1) in
  let result =
    Obs.Span.with_ "test.span_outer" (fun () ->
        Alcotest.(check int) "depth 1 in outer" 1 (Obs.Span.depth ());
        Obs.Span.with_ "test.span_inner" (fun () ->
            inner_depth := Obs.Span.depth ();
            17))
  in
  Alcotest.(check int) "nested depth" 2 !inner_depth;
  Alcotest.(check int) "result threads through" 17 result;
  Alcotest.(check int) "depth 0 after" 0 (Obs.Span.depth ());
  Alcotest.(check int) "outer count" 1 (Obs.Span.count "test.span_outer");
  Alcotest.(check int) "inner count" 1 (Obs.Span.count "test.span_inner");
  Alcotest.(check bool) "outer time >= inner time" true
    (Obs.Span.total_ns "test.span_outer" >= Obs.Span.total_ns "test.span_inner")

let test_span_exception_still_recorded () =
  (try Obs.Span.with_ "test.span_raises" (fun () -> failwith "boom") with
   | Failure _ -> ());
  Alcotest.(check int) "recorded despite exception" 1 (Obs.Span.count "test.span_raises");
  Alcotest.(check int) "stack unwound" 0 (Obs.Span.depth ())

let test_span_accumulates () =
  for _ = 1 to 5 do
    Obs.Span.with_ "test.span_repeat" (fun () -> Sys.opaque_identity ())
  done;
  Alcotest.(check int) "five runs" 5 (Obs.Span.count "test.span_repeat")

(* ---------------- registry rendering ---------------- *)

let test_json_roundtrip () =
  let c = Obs.Counter.make "test.json.counter" in
  Obs.Counter.add c 1234;
  let h = Obs.Histogram.make "test.json.hist" in
  Obs.Histogram.observe h 100.0;
  Obs.Span.with_ "test.json.span" (fun () -> ());
  let snap = Obs.Registry.snapshot () in
  let text = Json.to_string (Obs.Registry.to_json snap) in
  match Json.of_string text with
  | Error e -> Alcotest.failf "snapshot JSON does not re-parse: %s" e
  | Ok doc ->
    let counters = Option.get (Json.member "counters" doc) in
    Alcotest.(check bool) "counter present with value" true
      (Json.member "test.json.counter" counters = Some (Json.Int 1234));
    let hists = Option.get (Json.member "histograms" doc) in
    let hist = Option.get (Json.member "test.json.hist" hists) in
    Alcotest.(check bool) "histogram count" true
      (Json.member "count" hist = Some (Json.Int 1));
    let spans = Option.get (Json.member "spans" doc) in
    let span = Option.get (Json.member "test.json.span" spans) in
    Alcotest.(check bool) "span count" true
      (Json.member "count" span = Some (Json.Int 1));
    Alcotest.(check bool) "span total_ns is an int" true
      (match Json.member "total_ns" span with Some (Json.Int _) -> true | _ -> false)

let test_text_rendering () =
  let c = Obs.Counter.make "test.text.counter" in
  Obs.Counter.add c 9;
  Obs.Span.with_ "test.text.span" (fun () -> ());
  let text = Obs.Registry.to_text (Obs.Registry.snapshot ()) in
  let contains needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter line" true (contains "test.text.counter");
  Alcotest.(check bool) "span line" true (contains "test.text.span")

(* ---------------- multi-domain safety ---------------- *)

let stress_domains = 4
let stress_iters = 100_000

let test_multi_domain_no_lost_increments () =
  let c = Obs.Counter.make "test.stress.counter" in
  let h = Obs.Histogram.make "test.stress.hist" in
  let work d () =
    Obs.Span.with_ "test.stress.span" (fun () ->
        for i = 1 to stress_iters do
          Obs.Counter.incr c;
          (* spread observations over buckets so bucket CAS traffic is
             not serialized through a single cell *)
          Obs.Histogram.observe h (float_of_int (((d * stress_iters) + i) mod 4096))
        done)
  in
  let handles = List.init stress_domains (fun d -> Domain.spawn (work d)) in
  List.iter Domain.join handles;
  Alcotest.(check int) "no lost counter increments" (stress_domains * stress_iters)
    (Obs.Counter.get c);
  Alcotest.(check int) "no lost histogram observations" (stress_domains * stress_iters)
    (Obs.Histogram.count h);
  Alcotest.(check int) "every domain's span recorded" stress_domains
    (Obs.Span.count "test.stress.span")

(* A domain that dies with spans open must not disturb any other
   domain's DLS stack or the final snapshot: Span.with_ records the
   raising span on the way out, the dead domain's stack dies with its
   DLS, and every surviving domain's counts stay exact. *)
let test_span_crash_isolation () =
  let crash_domains = 4 in
  let iters = 1000 in
  let work d () =
    for i = 1 to iters do
      Obs.Span.with_ "test.crash.outer" (fun () ->
          Obs.Span.with_ "test.crash.inner" (fun () ->
              if d = 0 && i = iters / 2 then failwith "injected span crash"))
    done
  in
  let handles = List.init crash_domains (fun d -> Domain.spawn (work d)) in
  let crashed = ref 0 in
  List.iter (fun h -> try Domain.join h with Failure _ -> incr crashed) handles;
  Alcotest.(check int) "exactly one domain crashed" 1 !crashed;
  (* survivors completed all iterations; the crashed domain recorded every
     span it entered, including the raising one (exception-safe finish) *)
  let expect = ((crash_domains - 1) * iters) + (iters / 2) in
  Alcotest.(check int) "outer spans exact" expect (Obs.Span.count "test.crash.outer");
  Alcotest.(check int) "inner spans exact" expect (Obs.Span.count "test.crash.inner");
  Alcotest.(check int) "main domain's stack untouched" 0 (Obs.Span.depth ());
  Obs.Span.with_ "test.crash.after" (fun () ->
      Alcotest.(check int) "main domain still nests" 1 (Obs.Span.depth ()));
  match
    Json.of_string (Json.to_string (Obs.Registry.to_json (Obs.Registry.snapshot ())))
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "snapshot after crash invalid: %s" e

let test_recovery_names_complete () =
  (* Obs.recovery_counter_names is the single source of truth the CLI's
     exit-2 policy and the docs both read. Counters register at library
     init, so by the time this test runs the registry holds every counter
     any linked library defines: any name that *looks* like a recovery
     counter (suffix rejected/dropped/truncated/capped) but is missing
     from the list is drift — a recovery path the CLI would ignore. *)
  let registered =
    List.map fst (Obs.Registry.counters (Obs.Registry.snapshot ()))
  in
  Alcotest.(check bool) "registry is populated" true (registered <> []);
  List.iter
    (fun name ->
      if List.exists (Filename.check_suffix name)
           [ "rejected"; "dropped"; "truncated"; "capped" ]
      then
        Alcotest.(check bool)
          (Printf.sprintf "%s is in Obs.recovery_counter_names" name)
          true
          (List.mem name Obs.recovery_counter_names))
    registered;
  (* and the list itself never names a counter no library registers *)
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is actually registered" name)
        true (List.mem name registered))
    Obs.recovery_counter_names

let suite =
  [ Alcotest.test_case "counter basics" `Quick (with_metrics test_counter_basics);
    Alcotest.test_case "counter disabled no-op" `Quick (with_metrics test_counter_disabled_noop);
    Alcotest.test_case "reset" `Quick (with_metrics test_reset);
    Alcotest.test_case "histogram quantiles" `Quick (with_metrics test_histogram_quantiles);
    Alcotest.test_case "histogram constant stream" `Quick
      (with_metrics test_histogram_constant_stream);
    Alcotest.test_case "histogram underflow/empty" `Quick
      (with_metrics test_histogram_underflow_and_empty);
    Alcotest.test_case "quantile degenerate pins" `Quick
      (with_metrics test_quantile_degenerate_pins);
    Alcotest.test_case "quantile extreme qs" `Quick
      (with_metrics test_quantile_extreme_qs);
    Alcotest.test_case "span nesting" `Quick (with_metrics test_span_nesting);
    Alcotest.test_case "span exception" `Quick (with_metrics test_span_exception_still_recorded);
    Alcotest.test_case "span accumulates" `Quick (with_metrics test_span_accumulates);
    Alcotest.test_case "json round-trip" `Quick (with_metrics test_json_roundtrip);
    Alcotest.test_case "text rendering" `Quick (with_metrics test_text_rendering);
    Alcotest.test_case "window rolling semantics" `Quick (with_metrics test_window_rolling);
    Alcotest.test_case "scrape under observe stress (4 domains)" `Quick
      (with_metrics test_scrape_under_observe_stress);
    Alcotest.test_case "prometheus round-trip" `Quick (with_metrics test_prometheus_roundtrip);
    Alcotest.test_case "prometheus parser rejects malformed" `Quick
      test_parse_prometheus_rejects;
    Alcotest.test_case "README metrics table drift" `Quick test_readme_metrics_table;
    Alcotest.test_case "multi-domain stress (4 domains)" `Quick
      (with_metrics test_multi_domain_no_lost_increments);
    Alcotest.test_case "span crash isolation (4 domains)" `Quick
      (with_metrics test_span_crash_isolation);
    Alcotest.test_case "recovery counter list complete" `Quick
      (with_metrics test_recovery_names_complete) ]
