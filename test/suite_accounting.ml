(* Exact accounting of the paper's four jobs (verify, ingest, stream,
   serve) and the corruption sweep, on one small synthetic world: 4
   tier-1, 40 transit and 160 stub ASes, default seeds, the default IRR
   mix (the world `bench/main.exe --quick` reports on). Every count is
   deterministic, so each is pinned to an exact integer: a change that
   moves one has changed behaviour, not timing. Each job is also checked
   against its simple oracle (memo-off engine, sequential ingest, batch
   re-verify, batch re-ingest). Timing lives in perfbench. *)

module Aggregate = Rz_verify.Aggregate
module Engine = Rz_verify.Engine
module Ingest = Rz_ingest.Ingest
module Db = Rz_irr.Db
module Q = Rz_irr.Irrd_query
module S = Rz_stream.Stream
module E = Rz_routegen.Events
module Serve = Rz_serve.Serve
module Generation = Rz_serve.Generation
module Nrtm = Rz_synthirr.Nrtm
module Fault = Rz_fault.Fault
module Obs = Rz_obs.Obs

let world =
  lazy
    (let topo_params =
       { Rz_topology.Gen.default_params with n_tier1 = 4; n_mid = 40; n_stub = 160 }
     in
     Rpslyzer.Pipeline.build_synthetic ~topo_params
       ~irr_config:Rz_synthirr.Config.default ())

let routes_of (w : Rpslyzer.Pipeline.world) =
  List.concat_map (fun (d : Rz_bgp.Table_dump.t) -> d.routes) w.table_dumps

let check_counts label expected counts =
  Alcotest.(check (list (pair string int))) label expected counts

(* Run [f] with a freshly zeroed, enabled metrics registry, then put the
   enabled flag back as it was. *)
let metered f =
  let was_enabled = Obs.enabled () in
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () -> if not was_enabled then Obs.disable ()) f

(* ---- verify ---- *)

(* Twelve consecutive snapshots of the collector RIBs: the shape of the
   paper's run, where the same routes recur across collectors and dump
   times, and what the hop memo exists for. *)
let snapshots = 12

let verify_runs =
  lazy
    (let w = Lazy.force world in
     let rib =
       { w with
         Rpslyzer.Pipeline.table_dumps =
           List.concat (List.init snapshots (fun _ -> w.table_dumps)) }
     in
     Db.warm_caches w.db;
     let c_hits = Obs.Counter.make "verify.memo_hits"
     and c_misses = Obs.Counter.make "verify.memo_misses" in
     let shipped, memo =
       metered (fun () ->
           let shipped = Rpslyzer.Pipeline.verify rib in
           (shipped, (Obs.Counter.get c_hits, Obs.Counter.get c_misses)))
     in
     let engine =
       Engine.create ~config:{ Engine.default_config with memoize = false } w.db w.rels
     in
     let agg = Aggregate.create () and excluded = ref 0 in
     List.iter
       (fun route ->
         match Engine.verify_route engine route with
         | Some report -> Aggregate.add_route_report agg report
         | None -> incr excluded)
       (routes_of rib);
     (rib, (shipped, memo), (agg, !excluded)))

let test_verify_accounting () =
  let rib, ((agg, `Total total, `Excluded excluded), (hits, misses)), _ =
    Lazy.force verify_runs
  in
  let unique = List.length (List.sort_uniq compare (routes_of rib)) in
  check_counts "routes"
    [ ("routes", 70_560); ("excluded", 768); ("unique_routes", 5_880);
      ("hops", 353_640) ]
    [ ("routes", total); ("excluded", excluded); ("unique_routes", unique);
      ("hops", Aggregate.n_hops agg) ];
  check_counts "hop statuses"
    [ ("verified", 87_084); ("skipped", 0); ("unrecorded", 245_832);
      ("relaxed", 3_504); ("safelisted", 9_396); ("unverified", 7_824) ]
    (Aggregate.counts_classes (Aggregate.overall agg));
  (* every hop goes through the memo (none reads the path); 96.6% hit *)
  check_counts "hop memo"
    [ ("memo_hits", 341_772); ("memo_misses", 11_868) ]
    [ ("memo_hits", hits); ("memo_misses", misses) ]

let test_verify_memo_off_oracle () =
  let _, ((agg, _, `Excluded excluded), _), (agg_off, excluded_off) =
    Lazy.force verify_runs
  in
  Alcotest.(check int) "excluded" excluded_off excluded;
  Alcotest.(check string) "fingerprint" (Aggregate.fingerprint agg_off)
    (Aggregate.fingerprint agg)

(* The keys a hop memo can hold for one route: one per export and one
   per import check, as [Engine] builds them (the export side also holds
   the AS the route was received from). *)
let hop_keys (route : Rz_bgp.Route.t) =
  let path = Array.of_list (Rz_bgp.Route.dedup_path route) in
  let n = Array.length path in
  if Rz_bgp.Route.contains_as_set route || n < 2 then []
  else
    List.concat
      (List.init (n - 1) (fun i ->
           let exporter = path.(i + 1) and importer = path.(i) in
           let second = if i + 2 < n then path.(i + 2) else -1 in
           [ (true, exporter, importer, second, path.(n - 1));
             (false, importer, exporter, -1, path.(n - 1)) ]))

(* The batch verify visits the RIB in prefix order and keeps one
   prefix's hop verdicts; a persistent memo over the same routes in
   their (shuffled) file order keeps them all. Every memo key holds the
   prefix, so the batch loses no hit, and it ends with no more entries
   than the largest prefix group has keys. *)
let test_verify_rib_prefix_memo () =
  let w = Lazy.force world in
  let rib, _, _ = Lazy.force verify_runs in
  let routes = Array.of_list (routes_of rib) in
  let rng = Random.State.make [| 7 |] in
  for i = Array.length routes - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let r = routes.(i) in
    routes.(i) <- routes.(j);
    routes.(j) <- r
  done;
  let c_hits = Obs.Counter.make "verify.memo_hits"
  and c_misses = Obs.Counter.make "verify.memo_misses" in
  let memo () =
    [ ("memo_hits", Obs.Counter.get c_hits); ("memo_misses", Obs.Counter.get c_misses) ]
  in
  let persistent = Engine.create w.db w.rels and agg_p = Aggregate.create () in
  let memo_p =
    metered (fun () ->
        Array.iter
          (fun route ->
            Option.iter (Aggregate.add_route_report agg_p) (Engine.verify_route persistent route))
          routes;
        memo ())
  in
  let batch = Engine.create w.db w.rels and agg_b = Aggregate.create () in
  let peak = ref 0 in
  let memo_b =
    metered (fun () ->
        Engine.verify_rib batch routes (fun _ report ->
            peak := max !peak (Engine.hop_memo_size batch);
            Option.iter (Aggregate.add_route_report agg_b) report);
        memo ())
  in
  check_counts "hop memo: batch = persistent" memo_p memo_b;
  Alcotest.(check string) "fingerprint" (Aggregate.fingerprint agg_p)
    (Aggregate.fingerprint agg_b);
  let profiles agg = List.map Aggregate.counts_classes (Aggregate.per_route_list agg) in
  Alcotest.(check (list (list (pair string int)))) "per_route_list" (profiles agg_p)
    (profiles agg_b);
  let groups = Hashtbl.create 1024 in
  Array.iter
    (fun (route : Rz_bgp.Route.t) ->
      let keys =
        match Hashtbl.find_opt groups route.prefix with
        | Some keys -> keys
        | None ->
          let keys = Hashtbl.create 16 in
          Hashtbl.replace groups route.prefix keys;
          keys
      in
      List.iter (fun k -> Hashtbl.replace keys k ()) (hop_keys route))
    routes;
  let bound = Hashtbl.fold (fun _ keys acc -> max acc (Hashtbl.length keys)) groups 0 in
  let within label size =
    Alcotest.(check bool) (Printf.sprintf "%s %d <= %d keys" label size bound) true
      (size <= bound)
  in
  within "memo after the batch" (Engine.hop_memo_size batch);
  within "memo during the batch" !peak;
  Alcotest.(check bool) "the persistent memo holds more than one prefix's keys" true
    (Engine.hop_memo_size persistent > bound)

(* ---- verdict mode ---- *)

(* The world `gen --world-scale paper --scale 0.01 --seed 11` writes: the
   paper preset's populations at that scale (3 tier-1, 25 transit, 720
   stub ASes) and 2 collectors peering with the 4 best-connected mids. *)
let paper_world =
  lazy
    (let dir = Filename.temp_file "paper-world" "" in
     Sys.remove dir;
     let topo_params =
       { Rz_topology.Gen.default_params with seed = 11; n_tier1 = 3; n_mid = 25; n_stub = 720 }
     in
     ignore
       (Rpslyzer.Pipeline.write_world ~topo_params
          ~irr_config:{ Rz_synthirr.Config.default with seed = 12 }
          ~n_collectors:2 ~n_collector_mids:4 dir);
     let w = Rpslyzer.Pipeline.load_world dir in
     Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
     Sys.rmdir dir;
     w)

(* Every hop of both worlds: verdict mode ([verify_rib]) has the full
   fold's ([explain_route]) status, attrs and peering-only bit. *)
let test_verdict_equals_full () =
  List.iter
    (fun (label, (w : Rpslyzer.Pipeline.world), n_hops) ->
      let hops, first_diff =
        Suite_property.verdict_vs_full w.db w.rels (Rpslyzer.Pipeline.rib w)
      in
      Alcotest.(check (option string)) (label ^ ": first disagreement") None first_diff;
      Alcotest.(check int) (label ^ ": hops compared") n_hops hops)
    [ ("quick world", Lazy.force world, 29_470);
      ("paper world", Lazy.force paper_world, 49_356) ]

(* ---- ingest ---- *)

let test_ingest_accounting () =
  let dumps = (Lazy.force world).dumps in
  let ir = Ingest.ingest dumps in
  let json = Rz_ir.Ir_json.export_string ir in
  check_counts "ingest"
    [ ("dumps", 13); ("bytes", 75_171); ("aut_nums", 153); ("as_sets", 93);
      ("routes", 445); ("errors", 18); ("ir_json_bytes", 153_328) ]
    [ ("dumps", List.length dumps);
      ("bytes", List.fold_left (fun a (_, t) -> a + String.length t) 0 dumps);
      ("aut_nums", Hashtbl.length ir.Rz_ir.Ir.aut_nums);
      ("as_sets", Hashtbl.length ir.Rz_ir.Ir.as_sets);
      ("routes", Rz_ir.Ir.n_route_objs ir);
      ("errors", List.length ir.Rz_ir.Ir.errors);
      ("ir_json_bytes", String.length json) ];
  Alcotest.(check bool) "byte-identical to ingest_sequential" true
    (String.equal json (Rz_ir.Ir_json.export_string (Ingest.ingest_sequential dumps)))

(* ---- stream ---- *)

let test_stream_accounting () =
  let w = Lazy.force world in
  let items =
    E.generate ~seed:42 ~n:1_500 ~edit_rate:0.05 (S.view_of w.db (routes_of w))
  in
  let t = S.create ~window:256 ~ir:(Db.ir w.db) ~rels:w.rels () in
  let st = S.run t items in
  let reports = S.reports t in
  let routes = List.filter_map snd reports in
  let counts = Aggregate.zero_counts () in
  List.iter
    (fun (r : Rz_verify.Report.route_report) ->
      List.iter
        (fun (h : Rz_verify.Report.hop) -> Aggregate.counts_add counts h.status)
        r.hops)
    routes;
  check_counts "events"
    [ ("events", 1_500); ("applied", 1_500); ("rejected", 0);
      ("generations", 90); ("invalidations", 850);
      ("rib", 849); ("routes", 844); ("excluded", 5) ]
    [ ("events", st.S.r_processed); ("applied", st.r_applied);
      ("rejected", st.r_rejected);
      ("generations", S.generations t); ("invalidations", S.invalidated t);
      ("rib", List.length reports); ("routes", List.length routes);
      ("excluded", List.length reports - List.length routes) ];
  check_counts "hop statuses"
    [ ("verified", 941); ("skipped", 0); ("unrecorded", 3_061); ("relaxed", 120);
      ("safelisted", 168); ("unverified", 178) ]
    (Aggregate.counts_classes counts);
  Alcotest.(check bool) "incremental == batch" true
    (Suite_stream.differential_holds t (Lazy.force world))

(* ---- serve ---- *)

(* Origin and flattened-cone lookups for every registered ASN, plus
   probes into the NRTM journal's fresh 198.18/15 range, cycled to 4,000
   queries. *)
let serve_workload ir =
  let asns =
    Hashtbl.fold (fun asn _ acc -> asn :: acc) ir.Rz_ir.Ir.aut_nums []
    |> List.sort Rz_net.Asn.compare
  in
  let base =
    Array.of_list
      (List.concat_map
         (fun asn ->
           [ "!g" ^ Rz_net.Asn.to_string asn;
             "!i" ^ Rz_synthirr.Generate.cone_set_name asn ^ ",1" ])
         asns
      @ [ "!r198.18.0.0/24"; "!r198.18.1.0/24,o"; "!aAS-NOWHERE" ])
  in
  Array.init 4_000 (fun i -> base.(i mod Array.length base))

let serve_config = { Serve.default_config with query_timeout_ms = 0 }

(* The workload runs metered, so the closing [!s] exposition carries
   serve.* samples. *)
let test_serve_accounting () =
  let ir = Db.ir (Lazy.force world).db in
  let db = Generation.current (Generation.init ir) in
  let data = ref 0 and no_data = ref 0 and not_found = ref 0 in
  let errors = ref 0 and bytes = ref 0 in
  metered @@ fun () ->
  Array.iter
    (fun q ->
      let resp = Serve.dispatch ~config:serve_config db q in
      bytes := !bytes + String.length (Q.render resp);
      match resp with
      | Q.Data _ -> incr data
      | Q.No_data -> incr no_data
      | Q.Not_found_key -> incr not_found
      | Q.Error_resp _ -> incr errors
      | Q.Quit -> Alcotest.fail "workload contains !q")
    (serve_workload ir);
  check_counts "responses"
    [ ("data", 2_013); ("no_data", 182); ("not_found", 1_805); ("error", 0);
      ("response_bytes", 90_724) ]
    [ ("data", !data); ("no_data", !no_data); ("not_found", !not_found);
      ("error", !errors); ("response_bytes", !bytes) ];
  let stats () = Obs.to_prometheus (Obs.Registry.snapshot ()) in
  match Serve.dispatch ~config:serve_config ~stats db "!s" with
  | Q.Data payload -> (
    match Obs.parse_prometheus payload with
    | Ok (_ :: _) -> ()
    | Ok [] -> Alcotest.fail "!s exposition parsed to zero samples"
    | Error e -> Alcotest.failf "!s exposition rejected: %s" e)
  | _ -> Alcotest.fail "!s did not answer Data under a stats closure"

(* A 60-op journal (seed 5) applied as 4 sequential generation swaps. *)
let test_serve_generations () =
  let w = Lazy.force world in
  let store = Generation.init (Db.ir w.db) in
  let ops = Nrtm.generate ~seed:5 ~n:60 w.dumps in
  List.iter (fun batch -> ignore (Generation.apply store batch)) (Suite_serve.chunk 4 ops);
  Alcotest.(check int) "generations" 5 (Generation.generation store);
  Alcotest.(check string) "swaps == batch re-ingest"
    (Generation.fingerprint (Db.of_dumps (Nrtm.apply_to_dumps ops w.dumps)))
    (Generation.fingerprint (Generation.current store))

(* ---- corruption sweep ---- *)

(* Object-level corruption of the IRR dumps at rising rates, seed 1337.
   Collector dumps are untouched, so route accounting never moves; the
   verified hop count may only fall, in proportion to the damage. *)
let chaos_rows =
  lazy
    (let w = Lazy.force world in
     List.map
       (fun rate ->
         let plan = Fault.plan ~seed:1337 ~rate () in
         let dumps, report = Fault.corrupt_dumps plan w.dumps in
         let db = Db.of_dumps dumps in
         (* flatten every set, not only those the routes reach, as
            faultinject does *)
         Db.warm_caches db;
         let agg, `Total total, `Excluded excluded =
           Rpslyzer.Pipeline.verify { w with db; dumps }
         in
         ( Fault.total_faults report, total, excluded, Aggregate.n_hops agg,
           List.assoc "verified" (Aggregate.counts_classes (Aggregate.overall agg)) ))
       [ 0.0; 0.02; 0.05; 0.1; 0.2 ])

let test_chaos_table () =
  let rows = Lazy.force chaos_rows in
  let column f = List.map f rows in
  let check label expected f = Alcotest.(check (list int)) label expected (column f) in
  check "faults" [ 0; 10; 29; 74; 149 ] (fun (f, _, _, _, _) -> f);
  check "routes" [ 5_880; 5_880; 5_880; 5_880; 5_880 ] (fun (_, r, _, _, _) -> r);
  check "excluded" [ 64; 64; 64; 64; 64 ] (fun (_, _, e, _, _) -> e);
  check "hops" [ 29_470; 29_470; 29_470; 29_470; 29_470 ] (fun (_, _, _, h, _) -> h);
  check "verified" [ 7_257; 7_257; 7_231; 7_111; 6_884 ] (fun (_, _, _, _, v) -> v)

(* The contract the pinned table must keep if the generator changes:
   corruption never helps, and even at 20% the damage stays local. *)
let test_chaos_contract () =
  match Lazy.force chaos_rows with
  | [] -> assert false
  | (_, _, _, _, base) :: _ as rows ->
    ignore
      (List.fold_left
         (fun prev (faults, _, _, _, verified) ->
           let label = Printf.sprintf "%d faults: verified %d" faults verified in
           Alcotest.(check bool) (label ^ " <= clean") true (verified <= base);
           Alcotest.(check bool) (label ^ " >= 0.6 clean") true
             (float_of_int verified >= 0.6 *. float_of_int base);
           Alcotest.(check bool) (label ^ " <= 1.02 previous") true
             (float_of_int verified <= 1.02 *. float_of_int prev);
           min prev verified)
         max_int rows)

let suite =
  [ Alcotest.test_case "verify accounting" `Quick test_verify_accounting;
    Alcotest.test_case "verify = memo-off engine" `Quick test_verify_memo_off_oracle;
    Alcotest.test_case "verdict mode = full fold" `Quick test_verdict_equals_full;
    Alcotest.test_case "ingest accounting" `Quick test_ingest_accounting;
    Alcotest.test_case "stream accounting" `Quick test_stream_accounting;
    Alcotest.test_case "serve accounting" `Quick test_serve_accounting;
    Alcotest.test_case "serve generations" `Quick test_serve_generations;
    Alcotest.test_case "chaos sweep table" `Quick test_chaos_table;
    Alcotest.test_case "chaos sweep contract" `Quick test_chaos_contract;
    Alcotest.test_case "prefix-order batch loses no memo hit" `Quick
      test_verify_rib_prefix_memo ]
