(* The measuring program of the repository's benchmark (see README.md).

   bench.exe prepare --workload W --world DIR --dir DIR --seed N
                     --journal-ops N --events N
     Writes one workload's input directory from a world written by
     [rpslyzer gen]: the seeded RIB order, NRTM journal or events
     journal, and the IR snapshot. Runs out of the measured process.

   bench.exe cold-ingest --dir DIR
     Prints the time of one ingest pass over the input's dumps, the first
     of its process; [run] starts it in child processes for the
     [ingest_irr] set-up.

   bench.exe run --workload W --dir DIR --seconds S --trace 0|1
                 [--expect-fingerprint HEX] [--trace-out FILE]
     Runs one workload on one OCaml domain, checks its outputs, and prints
     one line per metric followed by a one-line JSON result. With
     [--trace 0] the metrics are the end-to-end ones; with [--trace 1]
     the per-layer ones, measured on traced passes interleaved with
     untraced passes (whose difference is the tracing overhead).

   Estimator. Every pass of a workload repeats identical work on
   identical inputs, and a run makes a fixed number of passes for a
   given --seconds (see [pass_count]), so a program and a changed
   program take their minima over the same number of samples. A pass's
   cost is its fastest time over the passes; where a pass is a sequence
   of operations (a query, an event), each operation's cost is its
   fastest time over the passes. Interference from other tenants of the
   host only ever adds time, so the minimum discounts it. *)

module P = Rpslyzer.Pipeline
module Obs = Rz_obs.Obs
module Json = Rz_json.Json
module Db = Rz_irr.Db
module Ir = Rz_ir.Ir
module Ir_snapshot = Rz_ir.Ir_snapshot
module Ingest = Rz_ingest.Ingest
module Engine = Rz_verify.Engine
module Aggregate = Rz_verify.Aggregate
module Generation = Rz_serve.Generation
module Serve = Rz_serve.Serve
module Irrd_query = Rz_irr.Irrd_query
module Nrtm = Rz_synthirr.Nrtm
module Events = Rz_routegen.Events
module Stream = Rz_stream.Stream
module Splitmix = Rz_util.Splitmix

let now = Obs.now_ns
let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* ------------------------------------------------------------------ *)
(* Accounting                                                           *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

(* One attempted operation or output check; a false [ok] counts toward
   [failed] and is reported on stderr. *)
let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* No domain may ever be spawned: the benchmark pins one domain. *)
let spawned = Atomic.make false
let () = Domain.before_first_spawn (fun () -> Atomic.set spawned true)

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile of an int array (any order). *)
let percentile q a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median_f l =
  match List.sort compare l with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let min_into best i v = if v < best.(i) then best.(i) <- v

let vm_hwm_mib () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> 0.
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kib ->
              float_of_int kib /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* Passes per run. Each workload states the wall time of one pass
   (untimed preparation included) on the reference host; a run makes as
   many passes as fit in [seconds] there, and at least [min_passes]. The
   count depends on [seconds] only, never on how fast this build or this
   host is. *)
let repeat ~seconds ~cycle_s ~min_passes pass =
  let passes = max min_passes (int_of_float (seconds /. cycle_s)) in
  for i = 0 to passes - 1 do pass i done;
  passes

(* A host probe, run after the measurement: the fastest of many short
   dependent-load chases over an 8 MiB random cycle (memory latency) and
   of a short integer loop (core speed). On a shared host the memory
   figure moves with co-tenants' cache and memory traffic; printing it
   beside each run's metrics separates host drift from program changes. *)
let host_probe () =
  let n = 1 lsl 20 in
  let next = Array.init n Fun.id in
  let rng = Splitmix.create 7 in
  for i = n - 1 downto 1 do
    (* Sattolo's shuffle: one cycle through every slot *)
    let j = Splitmix.int rng i in
    let t = next.(i) in
    next.(i) <- next.(j);
    next.(j) <- t
  done;
  let mem = ref max_int and alu = ref max_int and j = ref 0 in
  for _ = 1 to 40 do
    let t0 = now () in
    for _ = 1 to 20_000 do j := next.(!j) done;
    let t1 = now () in
    for i = 1 to 1_000_000 do j := (!j * 31 + i) land (n - 1) done;
    let t2 = now () in
    mem := min !mem (t1 - t0);
    alu := min !alu (t2 - t1)
  done;
  Printf.printf "host probe: memory chase %.3f ms, integer loop %.3f ms (fastest of 40)\n"
    (ms !mem) (ms !alu)

(* Set-up is repeated before every pass and its fastest time is
   reported, as for every other timed figure. Spread over the run, the
   repetitions take their minimum over the same stretch of time as the
   passes; made one after the other at the start, they would all share
   whatever the host was doing in those few seconds. The heap is
   collected before each repetition, so the previous pass's garbage is
   not charged to it. *)
let setup_best = ref Float.infinity
let setup_count = ref 0

let note_setup seconds =
  setup_best := Float.min !setup_best seconds;
  incr setup_count

let timed_setup f =
  Gc.full_major ();
  let t0 = now () in
  let v = f () in
  note_setup (float_of_int (now () - t0) /. 1e9);
  v

(* The set-up of each pass: [first] for the first, then a timed
   repetition of [setup]. [first] is dropped once used, so two set-ups'
   data are never live at once. *)
let per_pass_setup first setup =
  let pending = ref (Some first) in
  fun () ->
    match !pending with
    | Some v ->
      pending := None;
      v
    | None -> timed_setup setup

(* ------------------------------------------------------------------ *)
(* Spans (traced runs only)                                             *)
(* ------------------------------------------------------------------ *)

(* A span is either one call ([start_ns]..[end_ns]) or an aggregate of
   many calls of one function under one parent ([calls] > 1, [total_ns]
   their summed time), which keeps per-route and per-query calls from
   becoming millions of records. The program's own spans ([parse],
   [lower], [db-build], [serve.query]) arrive through the Obs span sink
   and are parented to the benchmark span open at the time. *)
type span = {
  id : int;
  parent : int;
  name : string;
  is_agg : bool;
  start_ns : int;
  mutable end_ns : int;
  mutable total_ns : int;
  mutable calls : int;
  mutable aggs : (string * span) list;
}

let tracing = ref false
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

let new_span ~parent ~is_agg name start =
  incr next_id;
  let s =
    { id = !next_id; parent; name; is_agg; start_ns = start; end_ns = start;
      total_ns = 0; calls = 0; aggs = [] }
  in
  spans := s :: !spans;
  s

let top_id () = match !stack with s :: _ -> s.id | [] -> 0

let span name f =
  if not !tracing then f ()
  else begin
    let s = new_span ~parent:(top_id ()) ~is_agg:false name (now ()) in
    stack := s :: !stack;
    let finish () =
      s.end_ns <- now ();
      s.total_ns <- s.end_ns - s.start_ns;
      s.calls <- 1;
      stack := List.tl !stack
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let aggregate_under (parent : span) name =
  match List.assoc_opt name parent.aggs with
  | Some s -> s
  | None ->
    let s = new_span ~parent:parent.id ~is_agg:true name (now ()) in
    parent.aggs <- (name, s) :: parent.aggs;
    s

(* The aggregate child [name] of the innermost open span. *)
let aggregate name =
  match !stack with
  | top :: _ -> aggregate_under top name
  | [] -> invalid_arg "aggregate outside any span"

let add_call agg ~start ~stop =
  agg.total_ns <- agg.total_ns + (stop - start);
  agg.calls <- agg.calls + 1;
  agg.end_ns <- stop

(* Time one call into [agg], with [agg] open so program spans raised
   inside it become its children. *)
let in_agg agg f =
  stack := agg :: !stack;
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  stack := List.tl !stack;
  add_call agg ~start:t0 ~stop:t1;
  (v, t1 - t0)

let sink name ~start_ns ~dur_ns =
  if !tracing then
    match !stack with
    | top :: _ when top.is_agg ->
      add_call (aggregate_under top name) ~start:start_ns ~stop:(start_ns + dur_ns)
    | _ ->
      let s = new_span ~parent:(top_id ()) ~is_agg:false name start_ns in
      s.end_ns <- start_ns + dur_ns;
      s.total_ns <- dur_ns;
      s.calls <- 1

let children_of () =
  let tbl = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add tbl s.parent s) !spans;
  tbl

(* Summed time of every descendant of [root] named [name]. *)
let descendant_ns kids root name =
  let rec walk s =
    List.fold_left
      (fun acc c -> acc + (if c.name = name then c.total_ns else 0) + walk c)
      0 (Hashtbl.find_all kids s.id)
  in
  walk root

let self_ns kids s =
  s.total_ns - List.fold_left (fun acc c -> acc + c.total_ns) 0 (Hashtbl.find_all kids s.id)

let spans_named name = List.filter (fun s -> s.name = name) !spans

(* Mean time per call of the spans named [name] (aggregates included). *)
let mean_call_ns name =
  let total, calls =
    List.fold_left (fun (t, c) s -> (t + s.total_ns, c + s.calls)) (0, 0) (spans_named name)
  in
  (total / max 1 calls, calls)

let spans_to_json () =
  let kids = children_of () in
  Json.List
    (List.rev_map
       (fun s ->
         Json.Obj
           [ ("id", Json.Int s.id); ("parent", Json.Int s.parent);
             ("name", Json.String s.name); ("start_ns", Json.Int s.start_ns);
             ("end_ns", Json.Int s.end_ns); ("calls", Json.Int s.calls);
             ("total_ns", Json.Int s.total_ns); ("self_ns", Json.Int (self_ns kids s)) ])
       !spans)

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

(* Per-layer metrics: name, unit, and the end-to-end metric and workload
   each should move. Every traced run prints all of them; a layer the
   workload does not exercise reads 0 with 0 samples. *)
let layer_table =
  [ ("bgp.load_s", "s", "setup_s@verify_rib, setup_s@stream_feed");
    ("ir.snapshot_decode_ms", "ms", "setup_s@verify_rib, setup_s@stream_feed");
    ("ir.snapshot_encode_ms", "ms", "throughput_per_s@ingest_irr");
    ("ir.snapshot_bytes_per_rpsl_byte", "ratio", "throughput_per_s@ingest_irr");
    ("ingest.parse_ms", "ms", "throughput_per_s@ingest_irr, setup_s@registry_churn");
    ("ingest.lower_ms", "ms", "throughput_per_s@ingest_irr, setup_s@registry_churn");
    ("ingest.objects", "count", "none (must not move)");
    ("ingest.rules", "count", "none (must not move)");
    ("ingest.errors", "count", "none (must not move)");
    ("irr.db_build_ms", "ms",
     "throughput_per_s@ingest_irr, latency_p99_us@registry_churn, latency_p99_us@stream_feed");
    ("irr.warm_ms", "ms", "throughput_per_s@ingest_irr, latency_p99_us@registry_churn");
    ("irr.as_flat_hit_ratio", "ratio", "throughput_per_s@verify_rib");
    ("verify.engine_s", "s", "throughput_per_s@verify_rib, peak_rss_mib@verify_rib");
    ("verify.aggregate_s", "s", "throughput_per_s@verify_rib, peak_rss_mib@verify_rib");
    ("verify.memo_hit_ratio", "ratio", "throughput_per_s@verify_rib");
    ("verify.hop_memo_entries", "count", "peak_rss_mib@verify_rib");
    ("verify.nfa_cache_entries", "count", "peak_rss_mib@verify_rib");
    ("verify.hops", "count", "none (must not move)");
    ("serve.dispatch_us_p50", "us", "latency_p50_us@registry_churn, throughput_per_s@registry_churn");
    ("serve.dispatch_us_p99", "us", "latency_p99_us@registry_churn");
    ("serve.wait_us_p99", "us", "latency_p99_us@registry_churn");
    ("serve.generator_late_ms_max", "ms", "none (generator health)");
    ("serve.apply_ms_p50", "ms", "latency_p99_us@registry_churn");
    ("serve.apply_ms_p99", "ms", "latency_p99_us@registry_churn");
    ("serve.publish_ms_p50", "ms", "latency_p99_us@registry_churn");
    ("serve.init_ms", "ms", "setup_s@registry_churn");
    ("nrtm.parse_ms", "ms", "setup_s@registry_churn");
    ("nrtm.ops_applied", "count", "none (must not move)");
    ("nrtm.ops_rejected", "count", "none (must stay 0)");
    ("stream.announce_us_p50", "us", "latency_p50_us@stream_feed");
    ("stream.withdraw_us_p50", "us", "latency_p50_us@stream_feed");
    ("stream.edit_ms_p50", "ms", "latency_p99_us@stream_feed, throughput_per_s@stream_feed");
    ("stream.edit_ms_p99", "ms", "latency_p99_us@stream_feed");
    ("stream.generations", "count", "none (must not move)");
    ("stream.invalidations_per_edit", "count", "latency_p99_us@stream_feed");
    ("gc.minor_mwords", "Mwords", "throughput_per_s@<this workload>");
    ("gc.major_collections", "count", "throughput_per_s@<this workload>, peak_rss_mib");
    ("gc.heap_peak_mwords", "Mwords", "peak_rss_mib@<this workload>");
    ("obs.trace_overhead_pct", "%", "none (cost of the traced run)");
    ("attr.unattributed_pct", "%", "none (attribution check)") ]

let layer_values : (string, float * int) Hashtbl.t = Hashtbl.create 64

let layer name ?(samples = 1) v =
  if not (List.exists (fun (n, _, _) -> n = name) layer_table) then
    invalid_arg ("unknown layer metric " ^ name);
  Hashtbl.replace layer_values name (v, samples)

(* End-to-end metrics, identical names on every workload. *)
type e2e = {
  peak_rss_mib : float;
  throughput : float;   (** work items per second *)
  item : string;        (** how [throughput] is counted *)
  latency : int array;  (** per-operation fastest time, ns *)
  lat_what : string;
}

let finite what v =
  if Float.is_finite v then v
  else begin
    check (what ^ " is finite") false;
    0.
  end

let print_result metrics =
  host_probe ();
  List.iter
    (fun (name, v, unit, note) -> Printf.printf "metric %-32s %14.6f %-7s %s\n" name v unit note)
    metrics;
  (* built first: a non-finite value is itself a failed check *)
  let values =
    List.map
      (fun (name, v, unit, _) ->
        (name, Json.Obj [ ("value", Json.Float (finite name v)); ("unit", Json.String unit) ]))
      metrics
  in
  let json =
    Json.Obj
      [ ("correct", Json.Bool (!failed = 0 && !attempted > 0));
        ("attempted", Json.Int (max 1 !attempted));
        ("failed", Json.Int !failed);
        ("metrics", Json.Obj values) ]
  in
  print_endline (Json.to_string json)

let print_e2e e =
  let n = Array.length e.latency in
  let ok_ratio = 1. -. (float_of_int !failed /. float_of_int (max 1 !attempted)) in
  Printf.printf "failed_ratio %d/%d = %g\n" !failed !attempted
    (float_of_int !failed /. float_of_int (max 1 !attempted));
  print_result
    [ ("setup_s", !setup_best, "s", Printf.sprintf "fastest of %d set-ups" !setup_count);
      ("peak_rss_mib", e.peak_rss_mib, "MiB", "VmHWM after the timed passes");
      ("ok_ratio", ok_ratio, "ratio", Printf.sprintf "1 - failed/attempted (n=%d)" !attempted);
      ("throughput_per_s", e.throughput, "1/s", e.item);
      ( "latency_p50_us",
        us (percentile 0.5 e.latency),
        "us",
        Printf.sprintf "%s (n=%d)" e.lat_what n );
      ( "latency_p99_us",
        us (percentile 0.99 e.latency),
        "us",
        Printf.sprintf "%s (n=%d, %d beyond)" e.lat_what n (n - int_of_float (Float.ceil (0.99 *. float_of_int n)))
      ) ]

(* Counters and ratios read from the program's own registry. *)
let counter snapshot name =
  Option.value ~default:0 (List.assoc_opt name (Obs.Registry.counters snapshot))

let ratio hits misses =
  if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)

(* Traced-run bookkeeping shared by every workload: headline cost of
   untraced vs traced passes, GC work per traced pass, attribution of
   each traced pass's wall time to named spans. *)
type traced = {
  mutable untraced_cost : int;
  mutable traced_cost : int;
  mutable traced_passes : int;
  mutable minor_words : float;
  mutable major_collections : int;
  mutable worst_unattributed : float;
  mutable ingest_calls : int;
}

let new_traced () =
  { untraced_cost = max_int; traced_cost = max_int; traced_passes = 0;
    minor_words = 0.; major_collections = 0; worst_unattributed = 0.;
    ingest_calls = 0 }

let attribution_tolerance_pct = 5.0

(* Run [f] as the traced pass: Obs on, spans on, GC deltas taken. *)
let traced_pass tr f =
  Obs.enable ();
  tracing := true;
  let g0 = Gc.quick_stat () in
  let v = span "pass" f in
  let g1 = Gc.quick_stat () in
  tracing := false;
  Obs.disable ();
  tr.traced_passes <- tr.traced_passes + 1;
  tr.minor_words <- tr.minor_words +. (g1.minor_words -. g0.minor_words);
  tr.major_collections <- tr.major_collections + (g1.major_collections - g0.major_collections);
  v

let finish_traced tr =
  let snap = Obs.Registry.snapshot () in
  let kids = children_of () in
  List.iter
    (fun pass ->
      let pct = 100. *. float_of_int (self_ns kids pass) /. float_of_int (max 1 pass.total_ns) in
      if Float.abs pct > Float.abs tr.worst_unattributed then tr.worst_unattributed <- pct)
    (spans_named "pass");
  let n = float_of_int (max 1 tr.traced_passes) in
  layer "gc.minor_mwords" ~samples:tr.traced_passes (tr.minor_words /. n /. 1e6);
  layer "gc.major_collections" ~samples:tr.traced_passes (float_of_int tr.major_collections /. n);
  layer "gc.heap_peak_mwords" (float_of_int (Gc.quick_stat ()).top_heap_words /. 1e6);
  layer "obs.trace_overhead_pct" ~samples:2
    (100. *. ((float_of_int tr.traced_cost /. float_of_int (max 1 tr.untraced_cost)) -. 1.));
  layer "attr.unattributed_pct" ~samples:tr.traced_passes tr.worst_unattributed;
  Printf.printf "attribution: worst pass leaves %.3f%% of its wall time outside named spans (tolerance %.1f%%)\n"
    tr.worst_unattributed attribution_tolerance_pct;
  check "attribution: traced pass wall time covered by named spans"
    (Float.abs tr.worst_unattributed <= attribution_tolerance_pct);
  (* single-domain guard *)
  let ingest_domains = counter snap "ingest.parallel.domains" in
  Printf.printf
    "single-domain guard: ingest.parallel.domains=%d over %d ingest calls, \
     verify.parallel.domains_total=%d, shard.workers_total=%d, domain spawned=%b\n"
    ingest_domains tr.ingest_calls
    (counter snap "verify.parallel.domains_total")
    (counter snap "shard.workers_total") (Atomic.get spawned);
  check "guard: every ingest call ran on one domain" (ingest_domains = tr.ingest_calls);
  check "guard: no parallel verify" (counter snap "verify.parallel.domains_total" = 0);
  check "guard: no shard workers" (counter snap "shard.workers_total" = 0);
  check "guard: no domain spawned" (not (Atomic.get spawned));
  snap

(* [Db.build] is timed by the program's own [db-build] span wherever it
   runs: set-up, the ingest pipeline, generation swaps, stream edits. *)
let db_build_layer () =
  let mean, calls = mean_call_ns "db-build" in
  layer "irr.db_build_ms" ~samples:calls (ms mean)

let print_layers () =
  let overhead_note = ref "" in
  let metrics =
    List.map
      (fun (name, unit, moves) ->
        let v, n = Option.value ~default:(0., 0) (Hashtbl.find_opt layer_values name) in
        if name = "obs.trace_overhead_pct" then overhead_note := Printf.sprintf "%.2f%%" v;
        (name, v, unit, Printf.sprintf "(n=%d) moves %s" n moves))
      layer_table
  in
  Printf.printf "obs.trace_overhead_pct = %s\n" !overhead_note;
  print_result metrics

(* ------------------------------------------------------------------ *)
(* Loading                                                              *)
(* ------------------------------------------------------------------ *)

let snapshot_path dir = Filename.concat dir "ir.snapshot"

(* The set-up loads the IR snapshot; a stale or rejected one would make
   [Pipeline.load_world] re-ingest silently and rewrite the file, putting
   a full ingest into a set-up repetition. So a miss is a failed check,
   tested untimed before the set-up with the same hit rule. *)
let check_snapshot_hit dir =
  let digest = Ingest.dumps_digest (P.load_dumps dir) in
  check "set-up: the IR snapshot is a hit for these dumps"
    (match Ir_snapshot.load (snapshot_path dir) with
     | Ok (d, _) -> d = digest
     | Error _ -> false)

let load_rels dir =
  match Rz_asrel.Rel_db.load (Filename.concat dir "as-rel.txt") with
  | Ok rels -> rels
  | Error e -> failwith ("as-rel.txt: " ^ e)

let load_table_dumps dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".routes")
  |> List.sort compare
  |> List.map (fun f ->
         match Rz_bgp.Table_dump.load ~collector:(Filename.chop_suffix f ".routes") (Filename.concat dir f) with
         | Ok dump -> dump
         | Error e -> failwith (f ^ ": " ^ e))

let all_routes (world : P.world) =
  Array.of_list (List.concat_map (fun (d : Rz_bgp.Table_dump.t) -> d.routes) world.table_dumps)

(* What [Pipeline.load_world ~snapshot] does on a snapshot hit, one
   public call at a time so each is timed under its own span. *)
let traced_load_world dir =
  (* load_world keeps no topology ground truth either *)
  let topo =
    Rz_topology.Gen.generate { Rz_topology.Gen.default_params with n_tier1 = 0; n_mid = 0; n_stub = 0 }
  in
  Gc.full_major ();
  Obs.enable ();
  tracing := true;
  let world =
    span "setup" (fun () ->
        let dumps = span "pipeline.load_dumps" (fun () -> P.load_dumps dir) in
        let digest = span "ingest.dumps_digest" (fun () -> Ingest.dumps_digest dumps) in
        let ir =
          match span "ir.snapshot_load" (fun () -> Ir_snapshot.load (snapshot_path dir)) with
          | Ok (d, ir) ->
            check "snapshot matches the dumps (hit)" (d = digest);
            ir
          | Error e -> failwith ("snapshot rejected: " ^ e)
        in
        let db = span "irr.db_build" (fun () -> Db.build ir) in
        let rels = span "asrel.load" (fun () -> load_rels dir) in
        let table_dumps = span "bgp.table_dump_load" (fun () -> load_table_dumps dir) in
        { P.topo;
          synth =
            { Rz_synthirr.Generate.topo; config = Rz_synthirr.Config.default;
              profiles = Hashtbl.create 1; dumps };
          db; rels; dumps; table_dumps })
  in
  tracing := false;
  Obs.disable ();
  let one name = match spans_named name with s :: _ -> s.total_ns | [] -> 0 in
  layer "bgp.load_s" (float_of_int (one "bgp.table_dump_load") /. 1e9);
  layer "ir.snapshot_decode_ms" (ms (one "ir.snapshot_load"));
  world

(* ------------------------------------------------------------------ *)
(* verify_rib                                                           *)
(* ------------------------------------------------------------------ *)

type verify_out = { fp : string; hops : int; status_sum : int; reported : int; excluded : int }

let verify_out agg excluded =
  { fp = Aggregate.fingerprint agg;
    hops = Aggregate.n_hops agg;
    status_sum = Aggregate.counts_total (Aggregate.overall agg);
    reported = Aggregate.n_routes agg;
    excluded }

let check_verify ~routes ~first o =
  check "verify: statuses sum to n_hops" (o.status_sum = o.hops);
  check "verify: routes + excluded = routes loaded" (o.reported + o.excluded = routes);
  match first with
  | None -> ()
  | Some f -> check "verify: pass fingerprint equals the first pass" (o.fp = f.fp)

(* One pass, with untimed preparation, takes about this long on the
   reference host. *)
let verify_cycle_s = 2.0

let verify_rib ~dir ~seconds ~trace ~expect =
  let load () = P.load_world ~snapshot:(snapshot_path dir) ~domains:1 dir in
  (* The caches live in the Db (flattening), the rels (cones) and the
     engine (memo, NFAs); a world loaded afresh before each pass, and an
     engine created inside it, start every pass cold, as a CLI run does.
     The traced run times the first load's public calls one by one. *)
  let next_world =
    per_pass_setup
      (if trace then traced_load_world dir
       else begin
         check_snapshot_hit dir;
         timed_setup load
       end)
      load
  in
  let n = ref 0 in
  let best_pass = ref max_int in
  let first = ref None in
  let tr = new_traced () in
  let engine_s = ref [] and aggregate_s = ref [] and memo = ref (0, 0) in
  (* The timed call is the CLI's default path. *)
  let untraced_pass world =
    let t0 = now () in
    let agg, `Total total, `Excluded excluded = P.verify world in
    let wall = now () - t0 in
    best_pass := min !best_pass wall;
    tr.untraced_cost <- min tr.untraced_cost wall;
    check "verify: Pipeline.verify examines every route" (total = !n);
    verify_out agg excluded
  in
  (* The traced pass does what [Pipeline.verify] does, one public call at
     a time, so engine and aggregate time separately; its fingerprint
     must equal the untraced passes'. *)
  let traced_pass_ (world : P.world) =
    let routes = all_routes world in
    let m0 = Obs.Registry.snapshot () in
    let engine, agg, excluded, a_verify, a_add =
      traced_pass tr (fun () ->
          let engine = span "verify.engine_create" (fun () -> Engine.create world.db world.rels) in
          let agg = Aggregate.create () in
          let excluded = ref 0 in
          let a_verify = aggregate "engine.verify_route" in
          let a_add = aggregate "aggregate.add_route_report" in
          Array.iter
            (fun route ->
              let t0 = now () in
              let r = Engine.verify_route engine route in
              let t1 = now () in
              add_call a_verify ~start:t0 ~stop:t1;
              match r with
              | Some report ->
                Aggregate.add_route_report agg report;
                add_call a_add ~start:t1 ~stop:(now ())
              | None -> incr excluded)
            routes;
          (engine, agg, !excluded, a_verify, a_add))
    in
    let pass = List.hd (spans_named "pass") in
    tr.traced_cost <- min tr.traced_cost pass.total_ns;
    let m1 = Obs.Registry.snapshot () in
    let d name = counter m1 name - counter m0 name in
    memo := (fst !memo + d "verify.memo_hits", snd !memo + d "verify.memo_misses");
    engine_s := (float_of_int a_verify.total_ns /. 1e9) :: !engine_s;
    aggregate_s := (float_of_int a_add.total_ns /. 1e9) :: !aggregate_s;
    layer "verify.hop_memo_entries" (float_of_int (Engine.hop_memo_size engine));
    layer "verify.nfa_cache_entries" (float_of_int (Engine.nfa_cache_size engine));
    verify_out agg excluded
  in
  (* pass 0 is untraced, so in a traced run every traced pass is checked
     against Pipeline.verify's fingerprint *)
  let passes =
    repeat ~seconds ~cycle_s:verify_cycle_s ~min_passes:(if trace then 4 else 3) (fun i ->
        let world = next_world () in
        n := Array.length (all_routes world);
        Gc.full_major ();
        let o = if trace && i mod 2 = 1 then traced_pass_ world else untraced_pass world in
        check_verify ~routes:!n ~first:!first o;
        if !first = None then first := Some o)
  in
  let peak_rss_mib = vm_hwm_mib () in
  let first = Option.get !first in
  Printf.printf "verify_rib: %d routes, %d passes, fastest untraced %.3f s, fingerprint %s\n" !n
    passes (float_of_int !best_pass /. 1e9) first.fp;
  (match expect with
   | Some fp -> check "verify: fingerprint equals the value recorded for this world" (first.fp = fp)
   | None -> ());
  if trace then begin
    let snap = finish_traced tr in
    let hits, misses = !memo in
    layer "verify.engine_s" ~samples:(List.length !engine_s) (median_f !engine_s);
    layer "verify.aggregate_s" ~samples:(List.length !aggregate_s) (median_f !aggregate_s);
    layer "verify.memo_hit_ratio" ~samples:(hits + misses) (ratio hits misses);
    layer "verify.hops" (float_of_int first.hops);
    db_build_layer ();
    layer "irr.as_flat_hit_ratio"
      ~samples:(counter snap "irr.as_flat.hits" + counter snap "irr.as_flat.misses")
      (ratio (counter snap "irr.as_flat.hits") (counter snap "irr.as_flat.misses"));
    print_layers ()
  end
  else
    print_e2e
      { peak_rss_mib;
        throughput = float_of_int !n /. (float_of_int !best_pass /. 1e9);
        item = Printf.sprintf "routes per second of the fastest of %d Pipeline.verify passes" passes;
        latency = [| !best_pass |];
        lat_what = "Pipeline.verify pass, fastest pass" }

(* ------------------------------------------------------------------ *)
(* ingest_irr                                                           *)
(* ------------------------------------------------------------------ *)

(* One pass, heap collection included, on the reference host. *)
let ingest_cycle_s = 0.15

(* The ingest pass: parse, lower, merge, [Db.build], warm-up, encode. *)
let ingest_pass ~digest dumps =
  let db = Ingest.db_of_dumps ~domains:1 dumps in
  Db.warm_caches db;
  (db, Ir_snapshot.encode ~input_digest:digest (Db.ir db))

(* [bench.exe cold-ingest --dir DIR]: the first ingest pass of a fresh
   process, in seconds, on standard output. *)
let cold_ingest ~dir =
  let dumps = P.load_dumps dir in
  let digest = Ingest.dumps_digest dumps in
  let t0 = now () in
  ignore (ingest_pass ~digest dumps);
  Printf.printf "%.9f\n" (float_of_int (now () - t0) /. 1e9)

(* The ingest set-up is the time until the first queryable registry of a
   fresh process exists, so each repetition needs a fresh process: this
   runs [cold_ingest] in a child process, between two passes, and waits
   for it. *)
let cold_ingest_setup dir =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "cold-ingest"; "--dir"; dir |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let line = In_channel.input_line ic in
  close_in ic;
  match Unix.waitpid [] pid, line with
  | (_, Unix.WEXITED 0), Some l -> note_setup (float_of_string l)
  | _ -> check "ingest: cold set-up process succeeds" false

(* A cold set-up runs before every [passes / ingest_setups]-th pass (11
   of the 133 passes at --seconds 20). *)
let ingest_setups = 10

let ingest_irr ~dir ~seconds ~trace =
  let dumps = P.load_dumps dir in
  let digest = Ingest.dumps_digest dumps in
  let rpsl_bytes = List.fold_left (fun acc (_, text) -> acc + String.length text) 0 dumps in
  let tr = new_traced () in
  let best = ref max_int in
  let first_md5 = ref None in
  let untraced_pass () =
    let t0 = now () in
    let db, bytes = ingest_pass ~digest dumps in
    (now () - t0, db, bytes)
  in
  let traced_pass_ () =
    let db, bytes =
      traced_pass tr (fun () ->
          tr.ingest_calls <- tr.ingest_calls + 1;
          let db = span "ingest.db_of_dumps" (fun () -> Ingest.db_of_dumps ~domains:1 dumps) in
          span "irr.warm_caches" (fun () -> Db.warm_caches db);
          let bytes =
            span "ir.snapshot_encode" (fun () -> Ir_snapshot.encode ~input_digest:digest (Db.ir db))
          in
          (db, bytes))
    in
    let pass = List.hd (spans_named "pass") in
    tr.traced_cost <- min tr.traced_cost pass.total_ns;
    (pass.total_ns, db, bytes)
  in
  let setup_every = max 1 (int_of_float (seconds /. ingest_cycle_s) / ingest_setups) in
  let m0 = Obs.Registry.snapshot () in
  (* pass 0, the process's first (cold) ingest, is a warm-up *)
  let passes =
    repeat ~seconds ~cycle_s:ingest_cycle_s ~min_passes:(if trace then 5 else 3) (fun i ->
        if (not trace) && i mod setup_every = 0 then cold_ingest_setup dir;
        if i > 0 then Gc.full_major ();
        let traced = trace && i mod 2 = 0 && i > 0 in
        let wall, _, bytes = if traced then traced_pass_ () else untraced_pass () in
        if i > 0 && not traced then begin
          best := min !best wall;
          tr.untraced_cost <- min tr.untraced_cost wall
        end;
        let md5 = Digest.string bytes in
        match !first_md5 with
        | None -> first_md5 := Some md5
        | Some m -> check "ingest: pass encodes the same snapshot bytes" (md5 = m))
  in
  let peak_rss_mib = vm_hwm_mib () in
  Printf.printf "ingest_irr: %d dumps, %d RPSL bytes, %d passes, fastest warm %.3f s\n"
    (List.length dumps) rpsl_bytes passes (float_of_int !best /. 1e9);
  (* the output checks run on one more, untimed pass *)
  let db, bytes = ingest_pass ~digest dumps in
  check "ingest: pass encodes the same snapshot bytes" (Some (Digest.string bytes) = !first_md5);
  let fp = Generation.fingerprint db in
  check "ingest: IR equals the sequential oracle's"
    (fp = Generation.fingerprint (Db.build (Ingest.ingest_sequential dumps)));
  let path = Filename.concat dir "roundtrip.snapshot" in
  Ir_snapshot.save path ~input_digest:digest (Db.ir db);
  let t0 = now () in
  (match Ir_snapshot.load path with
   | Ok (d, ir) ->
     layer "ir.snapshot_decode_ms" (ms (now () - t0));
     check "ingest: snapshot round trip keeps the input digest" (d = digest);
     check "ingest: snapshot round trip re-encodes byte-identically"
       (Ir_snapshot.encode ~input_digest:digest ir = bytes);
     check "ingest: snapshot round trip keeps the IR" (Generation.fingerprint (Db.build ir) = fp)
   | Error e -> check ("ingest: snapshot round trip loads: " ^ e) false);
  Sys.remove path;
  if trace then begin
    let snap = finish_traced tr in
    let per_pass name = List.map (fun p -> ms (descendant_ns (children_of ()) p name)) (spans_named "pass") in
    let med name = median_f (per_pass name) in
    let np = tr.traced_passes in
    layer "ingest.parse_ms" ~samples:np (med "parse");
    layer "ingest.lower_ms" ~samples:np (med "lower");
    layer "irr.db_build_ms" ~samples:np (med "db-build");
    layer "irr.warm_ms" ~samples:np (med "irr.warm_caches");
    layer "ir.snapshot_encode_ms" ~samples:np (med "ir.snapshot_encode");
    layer "ir.snapshot_bytes_per_rpsl_byte"
      (float_of_int (String.length bytes) /. float_of_int rpsl_bytes);
    let d name = float_of_int (counter snap name - counter m0 name) /. float_of_int (max 1 np) in
    layer "ingest.objects" ~samples:np (d "ir.objects_lowered_total");
    layer "ingest.rules" ~samples:np (d "ir.rules_total");
    layer "ingest.errors" ~samples:np (d "ir.errors_total");
    layer "irr.as_flat_hit_ratio"
      (ratio (counter snap "irr.as_flat.hits") (counter snap "irr.as_flat.misses"));
    print_layers ()
  end
  else
    print_e2e
      { peak_rss_mib;
        throughput = float_of_int rpsl_bytes /. (float_of_int !best /. 1e9);
        item = Printf.sprintf "RPSL bytes per second of the fastest of %d warm passes" (passes - 1);
        latency = [| !best |];
        lat_what = "ingest pass (db_of_dumps + warm + encode), fastest warm pass" }

(* ------------------------------------------------------------------ *)
(* registry_churn                                                       *)
(* ------------------------------------------------------------------ *)

let query_rate = 2_000        (* offered queries per second *)
let churn_batches = 4         (* NRTM batches per pass *)

(* One pass, with its [Generation.init] and heap collection, on the
   reference host; the pass itself lasts 7 m / [query_rate] seconds for
   m as-sets. *)
let churn_cycle_s = 1.8

(* The query mix. Nothing in the repository records a real IRRd query
   mix, so this one is an assumption, the simplest over the query kinds
   the workload covers: origin lookups ([!g]), one-level set expansion
   ([!i...,1]), prefix lists ([!a]), exact and less-specific route
   lookups ([!r], [!r...,l]), misses, and exact lookups of the journal's
   198.18/15 routes, whose answers change as batches land. Query k is of
   kind k mod 7, so every kind has the same share and the kinds are
   evenly spaced. Within a kind, the items are taken in a seeded order
   and each is used equally often: a pass holds m queries of each kind,
   m being the number of as-sets, so [!i] and [!a] name every as-set
   exactly once. The cost of a pass then does not depend on the seed.
   The [!a] order is fixed too: over the few tier-1 customer cones [!a]
   takes tens of milliseconds, over the other sets microseconds, and
   how close together the slow ones fall decides how long the queries
   behind them wait, so a seeded order would make the latency tail
   depend on the seed. *)
let build_queries ~seed (ir : Ir.t) (ops : Nrtm.op list) =
  let rng = Splitmix.create seed in
  let sorted l = Array.of_list (List.sort_uniq compare l) in
  let sets = sorted (Hashtbl.fold (fun name _ acc -> name :: acc) ir.as_sets []) in
  let asns = sorted (Hashtbl.fold (fun asn _ acc -> asn :: acc) ir.aut_nums []) in
  let prefixes =
    Array.of_list
      (List.sort_uniq Rz_net.Prefix.compare (Ir.fold_routes ir ~init:[] ~f:(fun acc r -> r.Ir.prefix :: acc)))
  in
  let v4 =
    Array.of_list
      (List.filter (fun p -> Rz_net.Prefix.is_v4 p && p.Rz_net.Prefix.len < 32) (Array.to_list prefixes))
  in
  let journal =
    sorted
      (List.filter_map
         (fun (op : Nrtm.op) ->
           match String.split_on_char '|' (Nrtm.key_of_paragraph op.text) with
           | "route" :: prefix :: _ -> Some prefix
           | _ -> None)
         ops)
  in
  (* a less-specific lookup from one bit below a registered v4 prefix *)
  let less_specific p =
    match String.split_on_char '/' (Rz_net.Prefix.to_string p) with
    | [ addr; len ] -> Printf.sprintf "!r%s/%d,l" addr (int_of_string len + 1)
    | _ -> assert false
  in
  let misses = [| "!gAS4200000001"; "!iAS-PERFBENCH-NONE,1"; "!r192.0.2.0/24"; "!aAS-NOWHERE" |] in
  let kinds =
    [| Array.map (fun a -> "!g" ^ Rz_net.Asn.to_string a) asns;
       Array.map (fun set -> "!i" ^ set ^ ",1") sets;
       Array.map (fun set -> "!a" ^ set) sets;
       Array.map (fun p -> "!r" ^ Rz_net.Prefix.to_string p) prefixes;
       Array.map less_specific v4;
       misses;
       Array.map (fun p -> "!r" ^ p) journal |]
  in
  Array.iteri
    (fun i items ->
      if items = [||] then failwith "build_queries: a query kind has no items";
      if i = 2 then Array.sort (fun a b -> compare (Hashtbl.hash a, a) (Hashtbl.hash b, b)) items
      else Splitmix.shuffle rng items)
    kinds;
  let k = Array.length kinds in
  Array.init (k * Array.length sets) (fun q ->
      let items = kinds.(q mod k) in
      items.(q / k mod Array.length items))

let spin_until t =
  let rec go () =
    let d = t - now () in
    if d > 2_000_000 then begin
      Unix.sleepf (float_of_int (d - 1_000_000) /. 1e9);
      go ()
    end
    else while now () < t do () done
  in
  go ()

let registry_churn ~dir ~seed ~seconds ~trace =
  let dumps = P.load_dumps dir in
  let journal_text = read_file (Filename.concat dir "journal.nrtm") in
  let period = 1_000_000_000 / query_rate in
  let inits = ref [] in
  let setup () =
    let ir = span "ingest.ingest" (fun () -> Ingest.ingest ~domains:1 dumps) in
    let ops, errors = span "nrtm.parse" (fun () -> Nrtm.parse journal_text) in
    let t0 = now () in
    let store = span "generation.init" (fun () -> Generation.init ir) in
    inits := ms (now () - t0) :: !inits;
    let queries = build_queries ~seed ir ops in
    (ops, errors, store, queries)
  in
  let tr = new_traced () in
  (* each pass starts from a fresh set-up: a new store at generation 1 *)
  let first =
    if trace then begin
      Obs.enable ();
      tracing := true;
      tr.ingest_calls <- 1;
      let v = span "setup" setup in
      tracing := false;
      Obs.disable ();
      let one name = match spans_named name with s :: _ -> s.total_ns | [] -> 0 in
      layer "nrtm.parse_ms" (ms (one "nrtm.parse"));
      layer "ingest.parse_ms" (ms (List.fold_left (fun a s -> a + s.total_ns) 0 (spans_named "parse")));
      layer "ingest.lower_ms" (ms (List.fold_left (fun a s -> a + s.total_ns) 0 (spans_named "lower")));
      v
    end
    else timed_setup setup
  in
  let ops, errors, _, queries = first in
  let next_setup = per_pass_setup first setup in
  check "churn: journal parses without rejections" (errors = []);
  let n_q = Array.length queries in
  let ops_a = Array.of_list ops in
  let n_ops = Array.length ops_a in
  let batches =
    Array.init churn_batches (fun b ->
        Array.to_list (Array.sub ops_a (b * n_ops / churn_batches) (((b + 1) * n_ops / churn_batches) - (b * n_ops / churn_batches))))
  in
  let batch_at = Array.init churn_batches (fun b -> (b + 1) * n_q / (churn_batches + 1)) in
  let best_lat = Array.make n_q max_int and best_svc_pass = ref max_int in
  let first_digest = ref None in
  let last_store = ref None in
  let publish = ref [] and applies = ref [] in
  let dispatch_ns = ref [] and wait_ns = ref [] and late_max = ref 0 in
  let pass traced store =
    let responses = Array.make n_q Irrd_query.No_data in
    let svc_total = ref 0 in
    let a_dispatch = if traced then Some (aggregate "serve.dispatch") else None in
    let a_wait = if traced then Some (aggregate "bench.wait_due") else None in
    let t0 = now () + 1_000_000 in
    let prev_end = ref t0 and next_batch = ref 0 in
    for k = 0 to n_q - 1 do
      let due = t0 + (k * period) in
      if !next_batch < churn_batches && batch_at.(!next_batch) = k then begin
        spin_until due;
        let s = now () in
        ignore (span "generation.apply" (fun () -> Generation.apply store batches.(!next_batch)));
        let e = now () in
        if traced then begin
          applies := (e - s) :: !applies;
          publish := (e - due) :: !publish
        end;
        prev_end := e;
        incr next_batch
      end;
      let w0 = now () in
      spin_until due;
      let s = now () in
      (match a_wait with Some a -> add_call a ~start:w0 ~stop:s | None -> ());
      let q = queries.(k) in
      let resp, e =
        match a_dispatch with
        | None ->
          let r = Serve.dispatch (Generation.current store) q in
          (r, now ())
        | Some a ->
          let r, _ = in_agg a (fun () -> Serve.dispatch (Generation.current store) q) in
          (r, a.end_ns)
      in
      responses.(k) <- resp;
      min_into best_lat k (e - due);
      svc_total := !svc_total + (e - s);
      if traced then begin
        dispatch_ns := (e - s) :: !dispatch_ns;
        wait_ns := (s - due) :: !wait_ns;
        late_max := max !late_max (s - max due !prev_end)
      end;
      prev_end := e
    done;
    (responses, !svc_total)
  in
  let passes =
    repeat ~seconds ~cycle_s:churn_cycle_s ~min_passes:(if trace then 4 else 3) (fun i ->
        let _, _, store, _ = next_setup () in
        Gc.full_major ();
        let traced = trace && i mod 2 = 1 in
        let responses, _ =
          if traced then begin
            let m0 = Obs.Registry.snapshot () in
            let r = traced_pass tr (fun () -> pass true store) in
            let m1 = Obs.Registry.snapshot () in
            layer "nrtm.ops_applied" (float_of_int (counter m1 "nrtm.ops_applied" - counter m0 "nrtm.ops_applied"));
            layer "nrtm.ops_rejected" (float_of_int (counter m1 "nrtm.ops_rejected" - counter m0 "nrtm.ops_rejected"));
            tr.traced_cost <- min tr.traced_cost (snd r);
            r
          end
          else begin
            let r = pass false store in
            best_svc_pass := min !best_svc_pass (snd r);
            tr.untraced_cost <- min tr.untraced_cost (snd r);
            r
          end
        in
        let f_count = ref 0 in
        let digest =
          Array.fold_left
            (fun d resp ->
              (match resp with Irrd_query.Error_resp _ -> incr f_count | _ -> ());
              Digest.string (d ^ Irrd_query.render resp))
            "" responses
        in
        attempted := !attempted + n_q + churn_batches;
        failed := !failed + !f_count;
        if !f_count > 0 then Printf.eprintf "perfbench: %d F responses in pass %d\n%!" !f_count i;
        check "churn: every batch published a generation" (Generation.generation store = 1 + churn_batches);
        (match !first_digest with
         | None -> first_digest := Some digest
         | Some d -> check "churn: response digest equals the first pass" (digest = d));
        last_store := Some store)
  in
  let peak_rss_mib = vm_hwm_mib () in
  Printf.printf "registry_churn: %d queries/pass at %d/s, %d batches (%d ops), %d passes, response digest %s\n"
    n_q query_rate churn_batches n_ops passes (Digest.to_hex (Option.get !first_digest));
  check "churn: live generation equals a batch re-ingest of the journal"
    (Generation.fingerprint (Generation.current (Option.get !last_store))
     = Generation.fingerprint (Db.of_dumps (Nrtm.apply_to_dumps ops dumps)));
  if trace then begin
    ignore (finish_traced tr);
    let arr l = Array.of_list l in
    layer "serve.dispatch_us_p50" ~samples:(List.length !dispatch_ns) (us (percentile 0.5 (arr !dispatch_ns)));
    layer "serve.dispatch_us_p99" ~samples:(List.length !dispatch_ns) (us (percentile 0.99 (arr !dispatch_ns)));
    layer "serve.wait_us_p99" ~samples:(List.length !wait_ns) (us (percentile 0.99 (arr !wait_ns)));
    layer "serve.generator_late_ms_max" ~samples:(List.length !wait_ns) (ms !late_max);
    layer "serve.apply_ms_p50" ~samples:(List.length !applies) (ms (percentile 0.5 (arr !applies)));
    layer "serve.apply_ms_p99" ~samples:(List.length !applies) (ms (percentile 0.99 (arr !applies)));
    layer "serve.publish_ms_p50" ~samples:(List.length !publish) (ms (percentile 0.5 (arr !publish)));
    layer "serve.init_ms" ~samples:(List.length !inits) (median_f !inits);
    db_build_layer ();
    print_layers ()
  end
  else
    print_e2e
      { peak_rss_mib;
        throughput = float_of_int n_q /. (float_of_int !best_svc_pass /. 1e9);
        item =
          Printf.sprintf "queries per second of service time, fastest of %d passes (single-thread capacity)"
            passes;
        latency = best_lat;
        lat_what = "query latency from its due time, fastest over passes" }

(* ------------------------------------------------------------------ *)
(* stream_feed                                                          *)
(* ------------------------------------------------------------------ *)

let kind_of (item : Events.item) =
  match item.ev with Events.Announce _ -> 0 | Events.Withdraw _ -> 1 | Events.Edit _ -> 2

(* One pass, with its check against a from-scratch verify, on the
   reference host. *)
let stream_cycle_s = 1.3

let stream_feed ~dir ~seconds ~trace =
  let journal = read_file (Filename.concat dir "events.journal") in
  let setup () =
    let world = P.load_world ~snapshot:(snapshot_path dir) ~domains:1 dir in
    let items, errors = Events.parse journal in
    let t = Stream.create ~ir:(Db.ir world.db) ~rels:world.rels () in
    (world, Array.of_list items, errors, t)
  in
  (* each pass feeds a stream made by a fresh set-up *)
  let first =
    if trace then begin
      let world = traced_load_world dir in
      let items, errors = Events.parse journal in
      (world, Array.of_list items, errors, Stream.create ~ir:(Db.ir world.db) ~rels:world.rels ())
    end
    else begin
      check_snapshot_hit dir;
      timed_setup setup
    end
  in
  let _, items, errors, _ = first in
  let next_setup = per_pass_setup first setup in
  check "stream: events journal parses without rejections" (errors = []);
  let n = Array.length items in
  (* The generator may add a rule naming one of the registry's invalid
     set names; the policy parser rejects such text, and so must the
     stream. Only other rejections are failures. *)
  let expect_reject =
    Array.map
      (fun (item : Events.item) ->
        let bad direction text =
          Result.is_error (Rz_policy.Parser.parse_rule ~direction ~multiprotocol:false text)
        in
        match item.ev with
        | Events.Edit (Events.Add_import (_, text)) -> bad `Import text
        | Events.Edit (Events.Add_export (_, text)) -> bad `Export text
        | _ -> false)
      items
  in
  let best = Array.make n max_int in
  let best_pass = ref max_int in
  let tr = new_traced () in
  let by_kind = [| ref []; ref []; ref [] |] in
  let generations = ref 0 and invalidated = ref 0 in
  let first_reports = ref None in
  let pass traced t =
    let aggs =
      if traced then
        Some (Array.map aggregate [| "stream.feed.announce"; "stream.feed.withdraw"; "stream.feed.edit" |])
      else None
    in
    let t0 = now () in
    let prev = ref t0 in
    Array.iteri
      (fun i item ->
        let result =
          match aggs with
          | None -> Stream.feed t item
          | Some a ->
            let k = kind_of item in
            let r, d = in_agg a.(k) (fun () -> Stream.feed t item) in
            by_kind.(k) := d :: !(by_kind.(k));
            r
        in
        let e = now () in
        min_into best i (e - !prev);
        prev := e;
        incr attempted;
        match result, expect_reject.(i) with
        | Stream.Applied, false | Stream.Rejected _, true -> ()
        | Stream.Applied, true ->
          incr failed;
          Printf.eprintf "perfbench: event %d applied, but its rule text does not parse\n%!"
            item.Events.seq
        | Stream.Abandoned, _ ->
          incr failed;
          Printf.eprintf "perfbench: event %d abandoned\n%!" item.Events.seq
        | Stream.Rejected reason, false ->
          incr failed;
          Printf.eprintf "perfbench: event %d rejected: %s\n%!" item.Events.seq reason)
      items;
    !prev - t0
  in
  let passes =
    repeat ~seconds ~cycle_s:stream_cycle_s ~min_passes:(if trace then 4 else 3) (fun i ->
        let (world : P.world), _, _, t = next_setup () in
        Gc.full_major ();
        let traced = trace && i mod 2 = 1 in
        if traced then begin
          ignore (traced_pass tr (fun () -> pass true t));
          let p = List.hd (spans_named "pass") in
          tr.traced_cost <- min tr.traced_cost p.total_ns;
          generations := Stream.generations t;
          invalidated := Stream.invalidated t
        end
        else begin
          let w = pass false t in
          best_pass := min !best_pass w;
          tr.untraced_cost <- min tr.untraced_cost w
        end;
        (* the incremental verdicts must equal a from-scratch verify *)
        let reports = Stream.reports t in
        let fresh = Engine.create (Stream.db t) world.rels in
        check "stream: verdicts equal a from-scratch verify"
          (List.for_all (fun (r, rep) -> Engine.verify_route fresh r = rep) reports);
        match !first_reports with
        | None -> first_reports := Some reports
        | Some f -> check "stream: verdicts equal the first pass" (reports = f))
  in
  let peak_rss_mib = vm_hwm_mib () in
  Printf.printf "stream_feed: %d events/pass, %d passes, fastest %.3f s\n" n passes
    (float_of_int !best_pass /. 1e9);
  if trace then begin
    ignore (finish_traced tr);
    let arr k = Array.of_list !(by_kind.(k)) in
    let cnt k = List.length !(by_kind.(k)) in
    layer "stream.announce_us_p50" ~samples:(cnt 0) (us (percentile 0.5 (arr 0)));
    layer "stream.withdraw_us_p50" ~samples:(cnt 1) (us (percentile 0.5 (arr 1)));
    layer "stream.edit_ms_p50" ~samples:(cnt 2) (ms (percentile 0.5 (arr 2)));
    layer "stream.edit_ms_p99" ~samples:(cnt 2) (ms (percentile 0.99 (arr 2)));
    layer "stream.generations" (float_of_int !generations);
    layer "stream.invalidations_per_edit"
      (float_of_int !invalidated /. float_of_int (max 1 !generations));
    db_build_layer ();
    print_layers ()
  end
  else
    print_e2e
      { peak_rss_mib;
        throughput = float_of_int n /. (float_of_int !best_pass /. 1e9);
        item = Printf.sprintf "events per second of the fastest of %d passes" passes;
        latency = best;
        lat_what = "per-event feed time, fastest over passes" }

(* ------------------------------------------------------------------ *)
(* prepare                                                              *)
(* ------------------------------------------------------------------ *)

let world_files world suffixes =
  Sys.readdir world |> Array.to_list
  |> List.filter (fun f -> List.exists (Filename.check_suffix f) suffixes)
  |> List.sort compare

(* The world's distinct collector routes (first occurrence kept, across
   all collectors), as one RIB; shuffled when [seed] is given. *)
let rib_text ~world ?seed () =
  let seen = Hashtbl.create (1 lsl 17) in
  let lines =
    List.concat_map
      (fun f ->
        String.split_on_char '\n' (read_file (Filename.concat world f))
        |> List.filter (fun l ->
               l <> "" && l.[0] <> '#' && not (Hashtbl.mem seen l)
               && (Hashtbl.add seen l (); true)))
      (world_files world [ ".routes" ])
    |> Array.of_list
  in
  Option.iter (fun seed -> Splitmix.shuffle (Splitmix.create seed) lines) seed;
  "# collector: rib\n" ^ String.concat "\n" (Array.to_list lines) ^ "\n"

(* Write the input directory of one (workload, seed) from the fixed
   world: only the files the workload's run loads. *)
let prepare ~workload ~world ~dir ~seed ~journal_ops ~events =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let copy suffixes =
    List.iter
      (fun f -> write_file (Filename.concat dir f) (read_file (Filename.concat world f)))
      (world_files world suffixes)
  in
  let dumps = P.load_dumps world in
  let snapshot () = ignore (P.load_world ~snapshot:(snapshot_path dir) ~domains:1 dir) in
  match workload with
  | "verify_rib" ->
    copy [ ".db"; "as-rel.txt" ];
    write_file (Filename.concat dir "rib.routes") (rib_text ~world ~seed ());
    snapshot ()
  | "ingest_irr" ->
    (* the registry as of a seeded batch of NRTM edits *)
    let ops = Nrtm.generate ~seed ~n:journal_ops dumps in
    List.iter
      (fun (irr, text) -> write_file (Filename.concat dir (irr ^ ".db")) text)
      (Nrtm.apply_to_dumps ops dumps)
  | "registry_churn" ->
    copy [ ".db" ];
    write_file (Filename.concat dir "journal.nrtm") (Nrtm.render (Nrtm.generate ~seed ~n:journal_ops dumps))
  | "stream_feed" ->
    copy [ ".db"; "as-rel.txt" ];
    write_file (Filename.concat dir "rib.routes") (rib_text ~world ());
    snapshot ();
    let w = P.load_world ~snapshot:(snapshot_path dir) ~domains:1 dir in
    let view = Stream.view_of w.db (Array.to_list (all_routes w)) in
    (* Exactly one policy edit every [edit_every] events (the generator's
       default 5% rate, without its binomial spread), so every seed
       carries the same number of Db rebuilds at the same RIB sizes. *)
    let edit_every = 20 in
    let n_edits = events / edit_every in
    let routes = ref (Events.generate ~seed ~n:(events - n_edits) ~edit_rate:0.0 view) in
    let edits = ref (Events.generate ~seed:(seed + 1) ~n:n_edits ~edit_rate:1.0 view) in
    let next l = match !l with x :: rest -> l := rest; x | [] -> assert false in
    let items =
      List.init events (fun i ->
          let item = next (if (i + 1) mod edit_every = 0 then edits else routes) in
          { item with Events.seq = i + 1 })
    in
    write_file (Filename.concat dir "events.journal") (Events.render items)
  | w -> failwith ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key -> opts ((key, value) :: acc) rest
    | [] -> acc
    | bad :: _ -> failwith ("unexpected argument " ^ bad)
  in
  let usage () =
    prerr_endline
      "usage: bench.exe prepare --workload W --world DIR --dir DIR --seed N --journal-ops N --events N\n\
      \       bench.exe cold-ingest --dir DIR\n\
      \       bench.exe run --workload W --dir DIR --seed N --seconds S --trace 0|1 \
       [--expect-fingerprint HEX] [--trace-out FILE]";
    exit 2
  in
  match args with
  | mode :: rest -> (
    let o = opts [] rest in
    let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
    let dir = get "--dir" and seed () = int_of_string (get "--seed") in
    match mode with
    | "cold-ingest" -> cold_ingest ~dir
    | "prepare" ->
      prepare ~workload:(get "--workload") ~world:(get "--world") ~dir ~seed:(seed ())
        ~journal_ops:(int_of_string (get "--journal-ops"))
        ~events:(int_of_string (get "--events"))
    | "run" ->
      let seconds = float_of_string (get "--seconds") in
      let trace = get "--trace" = "1" in
      let expect = List.assoc_opt "--expect-fingerprint" o in
      Obs.disable ();
      Obs.Span.set_sink (Some sink);
      (match get "--workload" with
       | "verify_rib" -> verify_rib ~dir ~seconds ~trace ~expect
       | "ingest_irr" -> ingest_irr ~dir ~seconds ~trace
       | "registry_churn" -> registry_churn ~dir ~seed:(seed ()) ~seconds ~trace
       | "stream_feed" -> stream_feed ~dir ~seconds ~trace
       | w -> failwith ("unknown workload " ^ w));
      (match List.assoc_opt "--trace-out" o with
       | Some path when trace -> write_file path (Json.to_string (spans_to_json ()))
       | _ -> ())
    | _ -> usage ())
  | [] -> usage ()
