(* Tests for the streaming verification engine (Rz_stream): the journal
   round-trip, window accounting, and — the load-bearing property — the
   differential between incremental verification and a from-scratch
   batch re-verify after an arbitrary event sequence, malformed policy
   edits spliced in included. *)

module S = Rz_stream.Stream
module E = Rz_routegen.Events
module Engine = Rz_verify.Engine
module Db = Rz_irr.Db
module Obs = Rz_obs.Obs

let small_world =
  lazy
    (let topo_params =
       { Rz_topology.Gen.default_params with seed = 11; n_tier1 = 3; n_mid = 12; n_stub = 40 }
     in
     Rpslyzer.Pipeline.build_synthetic ~topo_params ())

let base_routes (world : Rpslyzer.Pipeline.world) =
  List.concat_map (fun (d : Rz_bgp.Table_dump.t) -> d.routes) world.table_dumps

let mk_service (world : Rpslyzer.Pipeline.world) =
  S.create ~window:16 ~ir:(Rz_irr.Db.ir world.db) ~rels:world.rels ()

let gen_items ?(n = 80) ?(edit_rate = 0.12) ~seed world =
  let view = S.view_of world.Rpslyzer.Pipeline.db (base_routes world) in
  E.generate ~seed ~n ~edit_rate view

(* The differential surface: every verdict the service holds must equal
   what a fresh engine computes over a database built afresh from the
   service's current IR — so an index or flatten memo the service's
   patched database carried stale across an edit cannot pass unseen. *)
let differential_holds t (world : Rpslyzer.Pipeline.world) =
  let fresh = Engine.create (Db.build (Db.ir (S.db t))) world.rels in
  List.for_all (fun (r, rep) -> Engine.verify_route fresh r = rep) (S.reports t)

let is_edit (item : E.item) = match item.E.ev with E.Edit _ -> true | _ -> false

(* Feed every item, checking the differential after each applied edit;
   the seq of the first edit after which it failed, if any. *)
let feed_checked t world items =
  List.fold_left
    (fun broke item ->
      let applied = S.feed t item = S.Applied in
      match broke with
      | Some _ -> broke
      | None ->
        if applied && is_edit item && not (differential_holds t world) then
          Some item.E.seq
        else None)
    None items

(* ---- journal round-trip ---- *)

let test_journal_roundtrip () =
  let world = Lazy.force small_world in
  let items = gen_items ~n:150 ~edit_rate:0.2 ~seed:5 world in
  let parsed, errors = E.parse (E.render items) in
  Alcotest.(check int) "no rejections" 0 (List.length errors);
  Alcotest.(check int) "every event back" (List.length items) (List.length parsed);
  Alcotest.(check bool) "identical items" true (parsed = items)

let test_generate_deterministic () =
  let world = Lazy.force small_world in
  let a = gen_items ~seed:21 world and b = gen_items ~seed:21 world in
  let c = gen_items ~seed:22 world in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  Alcotest.(check bool) "different seed, different stream" true (a <> c)

(* ---- incremental == batch differential ---- *)

let feed_all t items = List.map (fun it -> S.feed t it) items

let test_differential_clean () =
  let world = Lazy.force small_world in
  let t = mk_service world in
  let items = gen_items ~n:120 ~edit_rate:0.15 ~seed:31 world in
  let broke = feed_checked t world items in
  S.flush t;
  Alcotest.(check bool) "policy edits happened" true (S.generations t > 0);
  Alcotest.(check bool) "rib populated" true (S.reports t <> []);
  Alcotest.(check (option int)) "incremental == batch after every edit" None broke;
  Alcotest.(check bool) "incremental == batch at the end" true (differential_holds t world)

(* Policy rule text that does not parse, in either direction. *)
let malformed_rules =
  [| "from AS1 accept"; "from AS1 accept {"; "from accept ANY"; "from AS1 accept <^AS1";
     "to AS1 announce ANY AND" |]

(* Splice Add_import/Add_export edits with malformed rule text in front
   of about one item in ten, at seeded positions, and renumber the feed;
   the seqs of the spliced edits come back beside it. *)
let splice_rejects ~seed world items =
  let rng = Random.State.make [| seed |] in
  let autnums = Array.of_list (S.view_of world.Rpslyzer.Pipeline.db []).E.autnums in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let bad () =
    let asn = pick autnums and text = pick malformed_rules in
    E.Edit (if Random.State.bool rng then E.Add_import (asn, text) else E.Add_export (asn, text))
  in
  let evs =
    List.concat_map
      (fun (item : E.item) ->
        let good = (false, item.E.ev) in
        if Random.State.int rng 10 = 0 then [ (true, bad ()); good ] else [ good ])
      items
  in
  ( List.mapi (fun i (_, ev) -> { E.seq = i + 1; ev }) evs,
    List.concat (List.mapi (fun i (spliced, _) -> if spliced then [ i + 1 ] else []) evs) )

let qcheck_differential =
  QCheck.Test.make ~count:10 ~name:"incremental == batch after any event sequence"
    QCheck.(make ~print:Print.(pair int bool) Gen.(pair (int_bound 9999) bool))
    (fun (seed, with_rejects) ->
      let world = Lazy.force small_world in
      let t = mk_service world in
      let items = gen_items ~n:80 ~seed world in
      let items, bad =
        if with_rejects then splice_rejects ~seed world items else (items, [])
      in
      List.iter
        (fun (item : E.item) ->
          let spliced = List.mem item.E.seq bad in
          match S.feed t item with
          | S.Abandoned ->
            QCheck.Test.fail_reportf "event %d abandoned at seed %d" item.E.seq seed
          | S.Applied when spliced ->
            QCheck.Test.fail_reportf "malformed edit %d applied at seed %d" item.E.seq seed
          | S.Applied ->
            if is_edit item && not (differential_holds t world) then
              QCheck.Test.fail_reportf
                "differential broke after edit %d at seed %d (rejects %b)" item.E.seq seed
                with_rejects
          | S.Rejected _ -> ())
        items;
      S.flush t;
      if not (differential_holds t world) then
        QCheck.Test.fail_reportf "differential broke at the end, seed %d (rejects %b)" seed
          with_rejects;
      true)

(* ---- Db.patch == Db.build ---- *)

(* Everything a query can see of a database, the sets asked in sorted
   order, or in reverse with [~rev:true]: memoized answers must not
   depend on the order sets are asked in. *)
let db_view ?(rev = false) db ~origins ~prefixes =
  let ir = Db.ir db in
  let names =
    List.sort_uniq compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) ir.Rz_ir.Ir.as_sets []
       @ Hashtbl.fold (fun k _ acc -> k :: acc) ir.Rz_ir.Ir.route_sets [])
  in
  let sets =
    List.map
      (fun name ->
        ( name,
          Db.Asn_set.elements (Db.flatten_as_set db name),
          Db.flatten_route_set db name,
          Db.as_set_depth db name,
          Db.as_set_has_loop db name ))
      (if rev then List.rev names else names)
  in
  ( List.sort compare sets,
    Db.truncated_sets db,
    List.map (fun o -> (Db.origin_prefixes db o, Db.origin_has_routes db o)) origins,
    List.map (fun p -> (Db.covering_routes db p, Db.exact_origins db p)) prefixes )

let qcheck_db_patch =
  QCheck.Test.make ~count:8 ~name:"db patch == build after every edit"
    QCheck.(make ~print:Print.int Gen.(int_bound 9999))
    (fun seed ->
      let world = Lazy.force small_world in
      let t = mk_service world in
      let items = gen_items ~n:60 ~edit_rate:0.6 ~seed world in
      (* every origin and prefix the run can touch, removed ones included *)
      let route_objs = ref [] in
      Rz_ir.Ir.iter_routes (Db.ir world.db) (fun r ->
          route_objs := (r.Rz_ir.Ir.prefix, r.Rz_ir.Ir.origin) :: !route_objs);
      List.iter
        (fun (item : E.item) ->
          match item.E.ev with
          | E.Edit (E.Route_add (p, o) | E.Route_del (p, o)) ->
            route_objs := (p, o) :: !route_objs
          | E.Announce r -> route_objs := (r.Rz_bgp.Route.prefix, 0) :: !route_objs
          | _ -> ())
        items;
      let origins = List.sort_uniq compare (List.map snd !route_objs) in
      let prefixes =
        List.sort_uniq Rz_net.Prefix.compare
          (List.map fst !route_objs
           @ List.map (fun (r : Rz_bgp.Route.t) -> r.prefix) (base_routes world))
      in
      let view ?rev db = db_view ?rev db ~origins ~prefixes in
      ignore (view (S.db t));
      List.iter
        (fun (item : E.item) ->
          if S.feed t item = S.Applied && is_edit item then begin
            let patched = view (S.db t) in
            let built = view ~rev:true (Db.build (Rz_ir.Ir.copy (Db.ir (S.db t)))) in
            if patched <> built then
              QCheck.Test.fail_reportf "patched db differs after edit %d (seed %d)"
                item.E.seq seed
          end)
        items;
      true)

(* A verifiable base route and its first hop: (route, importer, exporter). *)
let first_hop world =
  let route =
    List.find
      (fun (r : Rz_bgp.Route.t) ->
        (not (Rz_bgp.Route.contains_as_set r))
        && List.length (Rz_bgp.Route.dedup_path r) >= 2)
      (base_routes world)
  in
  match Rz_bgp.Route.dedup_path route with
  | a :: b :: _ -> (route, a, b)
  | _ -> assert false

let feeder t seq ev =
  Alcotest.(check bool) (Printf.sprintf "event %d applied" seq) true
    (S.feed t { E.seq; ev } = S.Applied)

let test_drop_import_evicts_nfa () =
  let world = Lazy.force small_world in
  let t = mk_service world in
  let route, importer, exporter = first_hop world in
  let feed = feeder t in
  feed 1
    (E.Edit
       (E.Add_import
          ( importer,
            Printf.sprintf "from AS%d accept <^AS%d AS%d* .*$>" exporter exporter exporter )));
  feed 2 (E.Announce route);
  let before = Engine.nfa_cache_size (S.engine t) in
  Alcotest.(check bool) "the new rule's pattern is compiled" true (before > 0);
  let n_imports =
    match Db.find_aut_num (S.db t) importer with
    | Some an -> List.length an.Rz_ir.Ir.imports
    | None -> Alcotest.fail "importer has no aut-num"
  in
  feed 3 (E.Edit (E.Drop_import (importer, n_imports - 1)));
  Alcotest.(check bool) "dropping the rule evicts its NFA" true
    (Engine.nfa_cache_size (S.engine t) < before);
  Alcotest.(check bool) "differential still holds" true (differential_holds t world)

(* A hop whose policy reads the AS-path is never memoized, so no memo
   invalidation names its route; the edit below changes its verdict all
   the same (the regex consults the as-set). *)
let test_path_dependent_reverified () =
  let world = Lazy.force small_world in
  let t = mk_service world in
  let route, importer, exporter = first_hop world in
  let origin = List.hd (List.rev (Rz_bgp.Route.dedup_path route)) in
  let feed = feeder t in
  let n_imports =
    match Db.find_aut_num (S.db t) importer with
    | Some an -> List.length an.Rz_ir.Ir.imports
    | None -> 0
  in
  for i = 1 to n_imports do
    feed i (E.Edit (E.Drop_import (importer, 0)))
  done;
  feed 100
    (E.Edit (E.Add_import (importer, Printf.sprintf "from AS%d accept <AS-PDTEST$>" exporter)));
  feed 101 (E.Announce route);
  let import_verified () =
    match List.assoc route (S.reports t) with
    | Some rep ->
      List.exists
        (fun (h : Rz_verify.Report.hop) ->
          h.direction = `Import && h.to_as = importer
          && h.status = Rz_verify.Status.Verified)
        rep.Rz_verify.Report.hops
    | None -> false
  in
  Alcotest.(check bool) "origin not yet in the set" false (import_verified ());
  feed 102 (E.Edit (E.As_set_add ("AS-PDTEST", origin)));
  Alcotest.(check bool) "re-verified after the set edit" true (import_verified ());
  Alcotest.(check bool) "differential holds" true (differential_holds t world)

let test_invalidation_counters () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) @@ fun () ->
  let memo_hits = Obs.Counter.make "verify.memo_hits" in
  let invalidations = Obs.Counter.make "stream.invalidations" in
  let world = Lazy.force small_world in
  let t = mk_service world in
  let items = gen_items ~n:100 ~edit_rate:0.25 ~seed:47 world in
  ignore (feed_all t items);
  S.flush t;
  Alcotest.(check bool) "generations advanced" true (S.generations t > 0);
  Alcotest.(check int) "counter tracks engine invalidations"
    (S.invalidated t) (Obs.Counter.get invalidations);
  (* re-verified routes find the hops an edit left alone in the memo *)
  Alcotest.(check bool) "sweeps hit the hop memo" true (Obs.Counter.get memo_hits > 0);
  Alcotest.(check bool) "differential still holds" true (differential_holds t world)

let test_windows_account_for_everything () =
  let world = Lazy.force small_world in
  let t = mk_service world in
  let items = gen_items ~n:100 ~seed:97 world in
  ignore (feed_all t items);
  S.flush t;
  let ws = S.windows t in
  Alcotest.(check int) "100 events over 16-event windows" 7 (List.length ws);
  let total = List.fold_left (fun acc (w : S.window) -> acc + w.S.w_events) 0 ws in
  Alcotest.(check int) "every event in exactly one window" 100 total;
  List.iter
    (fun (w : S.window) ->
      Alcotest.(check int)
        (Printf.sprintf "window %d kinds sum to events" w.S.w_index)
        w.S.w_events
        (w.S.w_announce + w.S.w_withdraw + w.S.w_edit))
    ws;
  (* the run summary's window JSON is reparseable, like every other
     surface, and lists every window *)
  let stats = { S.r_processed = 100; r_applied = 100; r_rejected = 0; r_degraded = false } in
  match Rz_json.Json.of_string (Rz_json.Json.to_string (S.stats_to_json t stats)) with
  | Ok doc -> (
    match Rz_json.Json.member "windows" doc with
    | Some (Rz_json.Json.List l) ->
      Alcotest.(check int) "every window in the JSON" (List.length ws) (List.length l)
    | _ -> Alcotest.fail "windows list missing")
  | Error e -> Alcotest.failf "summary JSON: %s" e

let suite =
  [ Alcotest.test_case "journal round-trip" `Quick test_journal_roundtrip;
    Alcotest.test_case "generator deterministic" `Quick test_generate_deterministic;
    Alcotest.test_case "differential (clean run)" `Quick test_differential_clean;
    QCheck_alcotest.to_alcotest qcheck_differential;
    QCheck_alcotest.to_alcotest qcheck_db_patch;
    Alcotest.test_case "dropping a regex rule evicts its NFA" `Quick
      test_drop_import_evicts_nfa;
    Alcotest.test_case "path-dependent routes re-verified" `Quick
      test_path_dependent_reverified;
    Alcotest.test_case "invalidation counters" `Quick test_invalidation_counters;
    Alcotest.test_case "windows account for everything" `Quick
      test_windows_account_for_everything ]
