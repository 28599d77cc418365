(* Tests for the rz_trace decision-tracing layer: ring-buffer bounds,
   sampling policies, the explain/batch-engine parity property (the
   tentpole contract: re-verifying a route with tracing forced on must
   reproduce the batch engine's verdicts, memoized or not, with
   provenance consistent with each verdict), Chrome trace-event export
   well-formedness, and the metrics streamer. *)

module Obs = Rz_obs.Obs
module Trace = Rz_trace.Trace
module Json = Rz_json.Json
module Status = Rz_verify.Status
module Report = Rz_verify.Report

(* Fresh tracer and registry per test; both left off afterwards so the
   other suites stay uninstrumented. *)
let with_trace f () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect f ~finally:(fun () ->
      Trace.configure Trace.Off;
      Obs.disable ();
      Obs.reset ())

let dummy_record ?(verdict_class = "verified") () =
  { Trace.seq = 0; t_ns = Obs.now_ns (); domain = (Domain.self () :> int);
    direction = "import"; subject = 65000; remote = 65001;
    prefix = "10.0.0.0/24"; origin = 65000; path_len = 2;
    verdict = "Verified"; verdict_class; rule = Some "import: from AS65001 accept ANY";
    filter_kind = Some "any"; as_sets = []; memo = "computed"; trigger = None;
    items = [] }

(* ---------------- sampling policies ---------------- *)

let test_sampling_strings () =
  List.iter
    (fun (s, p) ->
      Alcotest.(check bool) (Printf.sprintf "parse %S" s) true
        (Trace.sampling_of_string s = Some p);
      Alcotest.(check bool) (Printf.sprintf "round-trip %S" s) true
        (Trace.sampling_of_string (Trace.sampling_to_string p) = Some p))
    [ ("off", Trace.Off); ("all", Trace.All); ("quota:5", Trace.Per_status 5) ];
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "reject %S" s) true
        (Trace.sampling_of_string s = None))
    [ ""; "some"; "quota:"; "quota:0"; "quota:-3"; "quota:x" ]

let test_disabled_is_inert () =
  Trace.configure Trace.Off;
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  Alcotest.(check bool) "nothing sampled" false (Trace.should_sample "verified");
  Trace.emit (dummy_record ());
  Alcotest.(check int) "emit is a no-op" 0 (Trace.kept ());
  Alcotest.(check (list reject)) "no records" [] (Trace.records ())

let test_sampling_all_and_quota () =
  Trace.configure Trace.All;
  Alcotest.(check bool) "all samples everything" true (Trace.should_sample "unverified");
  for _ = 1 to 10 do Trace.emit (dummy_record ()) done;
  Alcotest.(check int) "all kept" 10 (Trace.kept ());
  Trace.configure (Trace.Per_status 3);
  for _ = 1 to 10 do
    if Trace.should_sample "verified" then Trace.emit (dummy_record ())
  done;
  for _ = 1 to 2 do
    if Trace.should_sample "relaxed" then
      Trace.emit (dummy_record ~verdict_class:"relaxed" ())
  done;
  Alcotest.(check int) "quota caps per class, not globally" 5 (Trace.kept ());
  (* records come back in emission order with contiguous seq *)
  let seqs = List.map (fun r -> r.Trace.seq) (Trace.records ()) in
  Alcotest.(check (list int)) "seq order" [ 0; 1; 2; 3; 4 ] seqs

(* The ring's fixed capacity, as trace.mli states it. *)
let ring_capacity = 4096

let test_ring_bounds () =
  Trace.configure Trace.All;
  for _ = 1 to ring_capacity + 12 do Trace.emit (dummy_record ()) done;
  Alcotest.(check int) "kept bounded by capacity" ring_capacity (Trace.kept ());
  Alcotest.(check int) "overflow counted as dropped" 12 (Trace.dropped ());
  (* the ring keeps the newest records *)
  let seqs = List.map (fun r -> r.Trace.seq) (Trace.records ()) in
  Alcotest.(check (list int)) "newest survive" (List.init ring_capacity (fun i -> 12 + i)) seqs

let test_shared_ring_concurrent () =
  (* concurrent emitters share the one ring: it stays within its
     capacity, every overflow is counted, and the survivors carry
     distinct sequence numbers in order *)
  let cap = ring_capacity and domains = 4 and per_domain = 2000 in
  Trace.configure Trace.All;
  let work () = for _ = 1 to per_domain do Trace.emit (dummy_record ()) done in
  List.iter Domain.join (List.init domains (fun _ -> Domain.spawn work));
  Alcotest.(check int) "kept = cap" cap (Trace.kept ());
  Alcotest.(check int) "dropped accounts for the rest"
    ((domains * per_domain) - cap)
    (Trace.dropped ());
  let seqs = List.map (fun r -> r.Trace.seq) (Trace.records ()) in
  Alcotest.(check int) "records match kept" cap (List.length seqs);
  Alcotest.(check (list int)) "sorted by distinct seq" (List.sort_uniq compare seqs) seqs

let test_with_sampling_restores () =
  Trace.configure (Trace.Per_status 2);
  let inside =
    Trace.with_sampling Trace.All (fun () ->
        Trace.emit (dummy_record ());
        (Trace.sampling (), Trace.kept ()))
  in
  Alcotest.(check bool) "forced to All inside" true (fst inside = Trace.All);
  Alcotest.(check int) "temporary record collected" 1 (snd inside);
  Alcotest.(check bool) "policy restored" true (Trace.sampling () = Trace.Per_status 2);
  Alcotest.(check int) "temporary records discarded" 0 (Trace.kept ())

(* ---------------- verify-engine emission ---------------- *)

let small_world () =
  Rpslyzer.Pipeline.build_synthetic
    ~topo_params:
      { Rz_topology.Gen.default_params with seed = 11; n_tier1 = 3; n_mid = 12; n_stub = 40 }
    ~irr_config:{ Rz_synthirr.Config.default with seed = 12 }
    ()

let world_routes world =
  Array.of_list
    (List.concat_map
       (fun (d : Rz_bgp.Table_dump.t) -> d.routes)
       world.Rpslyzer.Pipeline.table_dumps)

let test_engine_emits_records () =
  let world = small_world () in
  let routes = world_routes world in
  Trace.configure Trace.All;
  let engine = Rz_verify.Engine.create world.db world.rels in
  let n_hops = ref 0 in
  Array.iteri
    (fun i route ->
      if i < 50 then
        match Rz_verify.Engine.verify_route engine route with
        | Some report -> n_hops := !n_hops + List.length report.Report.hops
        | None -> ())
    routes;
  let rs = Trace.records () in
  Alcotest.(check int) "one record per hop" !n_hops (List.length rs);
  List.iter
    (fun r ->
      Alcotest.(check bool) "direction well-formed" true
        (r.Trace.direction = "import" || r.Trace.direction = "export");
      Alcotest.(check bool) "memo label well-formed" true
        (List.mem r.Trace.memo [ "computed"; "hit"; "miss"; "bypass" ]);
      Alcotest.(check bool) "verdict class well-formed" true
        (List.mem r.Trace.verdict_class
           [ "verified"; "skipped"; "unrecorded"; "relaxed"; "safelisted";
             "unverified" ]))
    rs;
  Alcotest.(check bool) "memo machinery visible in traces" true
    (List.exists (fun r -> r.Trace.memo = "hit") rs
     || List.exists (fun r -> r.Trace.memo = "miss") rs)

let test_untraced_run_emits_nothing () =
  let world = small_world () in
  let routes = world_routes world in
  Trace.configure Trace.Off;
  let engine = Rz_verify.Engine.create world.db world.rels in
  Array.iteri
    (fun i route -> if i < 20 then ignore (Rz_verify.Engine.verify_route engine route))
    routes;
  Alcotest.(check int) "no records without sampling" 0 (Trace.kept ())

(* ---------------- explain parity (the tentpole property) ---------------- *)

(* A provenance record is consistent with its verdict when the fields
   the verdict implies are populated: a Verified hop names the matching
   rule; Relaxed/Safelisted name their special case in the trigger;
   Unrecorded/Skipped name their reason; Verified/Unverified carry no
   trigger. *)
let provenance_consistent (hop : Report.hop) (r : Trace.record) =
  String.equal r.Trace.verdict (Status.to_string hop.status)
  && String.equal r.Trace.verdict_class (Status.class_label hop.status)
  &&
  match hop.status with
  | Status.Verified -> r.Trace.rule <> None && r.Trace.trigger = None
  | Status.Relaxed s | Status.Safelisted s ->
    r.Trace.trigger = Some (Status.special_to_string s)
  | Status.Unrecorded u -> r.Trace.trigger = Some (Status.unrec_to_string u)
  | Status.Skipped k -> r.Trace.trigger = Some (Status.skip_to_string k)
  | Status.Unverified -> r.Trace.trigger = None

let hop_statuses (report : Report.route_report) =
  List.map (fun (h : Report.hop) -> h.Report.status) report.hops

let test_explain_parity_qcheck () =
  let world = small_world () in
  let routes = world_routes world in
  let n = Array.length routes in
  Alcotest.(check bool) "world has routes" true (n > 0);
  (* Batch engines outlive the property: the memoized one is warmed over
     the whole table first, so explain is checked against genuine memo
     hits, not just first computations. *)
  let module Engine = Rz_verify.Engine in
  let warm = Engine.create world.db world.rels in
  Array.iter (fun r -> ignore (Engine.verify_route warm r)) routes;
  let cold_config = { Engine.default_config with memoize = false } in
  let prop i =
    let route = routes.(i mod n) in
    let batch_warm = Engine.verify_route warm route in
    let cold = Engine.create ~config:cold_config world.db world.rels in
    let batch_cold = Engine.verify_route cold route in
    match Rpslyzer.Pipeline.explain_route_traced world route with
    | None ->
      (* explain excludes exactly what the batch engine excludes *)
      batch_warm = None && batch_cold = None
    | Some e ->
      let explained =
        List.map (fun (h : Rpslyzer.Pipeline.explained_hop) -> h.hop.Report.status) e.hops
      in
      (match (batch_warm, batch_cold) with
       | Some w, Some c ->
         explained = hop_statuses w
         && explained = hop_statuses c
         && List.for_all
              (fun (h : Rpslyzer.Pipeline.explained_hop) ->
                match h.trace with
                | None -> false (* sampling forced on: every hop must carry provenance *)
                | Some r -> provenance_consistent h.hop r)
              e.hops
       | _ -> false)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:120 ~name:"explain verdict parity (memo on + off)"
       QCheck.(int_bound (max 0 (n - 1)))
       prop)

let test_explain_leaves_tracer_off () =
  let world = small_world () in
  let routes = world_routes world in
  Trace.configure Trace.Off;
  ignore (Rpslyzer.Pipeline.explain_route_traced world routes.(0));
  Alcotest.(check bool) "explain restores the Off policy" false (Trace.enabled ());
  Alcotest.(check int) "explain leaves no records behind" 0 (Trace.kept ())

(* ---------------- Chrome export ---------------- *)

let test_chrome_export_well_formed () =
  Trace.configure Trace.All;
  Trace.Chrome.install ();
  Fun.protect ~finally:Trace.Chrome.uninstall @@ fun () ->
  Obs.Span.with_ "trace.test.outer" (fun () ->
      Obs.Span.with_ "trace.test.inner" (fun () -> Sys.opaque_identity ()));
  Trace.emit (dummy_record ());
  let doc = Trace.Chrome.export ~records:(Trace.records ()) () in
  (* must survive a serialize/parse round-trip through Rz_json *)
  let doc =
    match Json.of_string (Json.to_string doc) with
    | Ok d -> d
    | Error e -> Alcotest.failf "chrome JSON does not re-parse: %s" e
  in
  let events =
    match doc with
    | Json.List es -> es
    | _ -> Alcotest.fail "chrome trace is not a JSON array"
  in
  Alcotest.(check bool) "nonempty" true (events <> []);
  let phase e =
    match Json.member "ph" e with
    | Some (Json.String p) -> p
    | _ -> Alcotest.failf "event without ph: %s" (Json.to_string e)
  in
  List.iter
    (fun e ->
      Alcotest.(check bool) "event is an object" true
        (match e with Json.Obj _ -> true | _ -> false);
      Alcotest.(check bool) "known phase" true
        (List.mem (phase e) [ "M"; "X"; "i" ]);
      Alcotest.(check bool) "named" true (Json.member "name" e <> None);
      match phase e with
      | "X" ->
        let nonneg k =
          match Json.member k e with
          | Some (Json.Float f) -> f >= 0.0
          | Some (Json.Int i) -> i >= 0
          | _ -> false
        in
        Alcotest.(check bool) "X has ts >= 0" true (nonneg "ts");
        Alcotest.(check bool) "X has dur >= 0" true (nonneg "dur")
      | "i" ->
        Alcotest.(check bool) "instant carries the record args" true
          (match Json.member "args" e with
           | Some args -> Json.member "verdict" args <> None
           | None -> false)
      | _ -> ())
    events;
  let count p = List.length (List.filter (fun e -> phase e = p) events) in
  Alcotest.(check int) "both spans exported" 2 (count "X");
  Alcotest.(check int) "hop instant exported" 1 (count "i");
  Alcotest.(check bool) "metadata events present" true (count "M" >= 2)

(* ---------------- metrics streaming ---------------- *)

let test_metrics_stream_writes_jsonl () =
  let path = Filename.temp_file "rz_trace_stream" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let c = Obs.Counter.make "trace.test.stream_counter" in
  let t = Trace.Metrics_stream.start ~interval_s:0.05 path in
  Obs.Counter.add c 41;
  Unix.sleepf 0.12;
  Obs.Counter.incr c;
  Trace.Metrics_stream.stop t;
  let lines =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> close_in ic; List.rev acc
    in
    go []
  in
  (* at least one periodic sample plus the final line at stop *)
  Alcotest.(check bool) "several JSONL lines" true (List.length lines >= 2);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "stream line does not parse: %s" e
      | Ok doc ->
        Alcotest.(check bool) "elapsed_s present" true
          (match Json.member "elapsed_s" doc with
           | Some (Json.Float f) -> f >= 0.0
           | _ -> false);
        Alcotest.(check bool) "metrics snapshot embedded" true
          (match Json.member "metrics" doc with
           | Some m -> Json.member "counters" m <> None
           | None -> false))
    lines;
  (* the final line reflects the state at stop *)
  let last = List.nth lines (List.length lines - 1) in
  match Json.of_string last with
  | Ok doc ->
    let counters = Option.get (Json.member "counters" (Option.get (Json.member "metrics" doc))) in
    Alcotest.(check bool) "final line has the final counter value" true
      (Json.member "trace.test.stream_counter" counters = Some (Json.Int 42))
  | Error e -> Alcotest.failf "final line: %s" e

let suite =
  [ Alcotest.test_case "sampling strings" `Quick (with_trace test_sampling_strings);
    Alcotest.test_case "disabled is inert" `Quick (with_trace test_disabled_is_inert);
    Alcotest.test_case "sampling all + quota" `Quick (with_trace test_sampling_all_and_quota);
    Alcotest.test_case "ring bounds" `Quick (with_trace test_ring_bounds);
    Alcotest.test_case "concurrent emitters share one bounded ring" `Quick
      (with_trace test_shared_ring_concurrent);
    Alcotest.test_case "with_sampling restores" `Quick (with_trace test_with_sampling_restores);
    Alcotest.test_case "engine emits records" `Quick (with_trace test_engine_emits_records);
    Alcotest.test_case "untraced run emits nothing" `Quick
      (with_trace test_untraced_run_emits_nothing);
    Alcotest.test_case "explain parity (QCheck)" `Quick (with_trace test_explain_parity_qcheck);
    Alcotest.test_case "explain leaves tracer off" `Quick
      (with_trace test_explain_leaves_tracer_off);
    Alcotest.test_case "chrome export well-formed" `Quick
      (with_trace test_chrome_export_well_formed);
    Alcotest.test_case "metrics stream JSONL" `Quick
      (with_trace test_metrics_stream_writes_jsonl) ]
