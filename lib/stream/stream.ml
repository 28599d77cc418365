(* Incremental verification of a live update feed. See stream.mli. *)

module Asn = Rz_net.Asn
module Prefix = Rz_net.Prefix
module Route = Rz_bgp.Route
module Ir = Rz_ir.Ir
module Db = Rz_irr.Db
module Engine = Rz_verify.Engine
module Report = Rz_verify.Report
module Aggregate = Rz_verify.Aggregate
module Events = Rz_routegen.Events
module Fault = Rz_fault.Fault
module Obs = Rz_obs.Obs
module Splitmix = Rz_util.Splitmix
module Json = Rz_json.Json

let c_abandoned = Obs.Counter.make "stream.events_abandoned"
let c_retries = Obs.Counter.make "stream.retries"
let c_watchdog = Obs.Counter.make "stream.watchdog_trips"
let c_reverified = Obs.Counter.make "stream.reverified"
let h_event_ns = Obs.Histogram.make "stream.event_ns"
let h_patch_ns = Obs.Histogram.make "stream.patch_ns"

type config = {
  window : int;
  queue_capacity : int;
  policy : Bqueue.policy;
  chaos : Fault.plan option;
  max_retries : int;
  backoff_ms : float;
  watchdog_ms : int;
}

let default_config =
  { window = 64;
    queue_capacity = 256;
    policy = Bqueue.Block;
    chaos = None;
    max_retries = 2;
    backoff_ms = 1.0;
    watchdog_ms = 0 }

type window = {
  w_index : int;
  w_start_seq : int;
  w_end_seq : int;
  w_events : int;
  w_announce : int;
  w_withdraw : int;
  w_edit : int;
  w_abandoned : int;
  w_rejected : int;
  w_rib : int;
  w_routes : int;    (* RIB routes with a verification report *)
  w_excluded : int;  (* RIB routes the paper excludes (single-AS, AS_SET) *)
  w_hops : Aggregate.counts;
}

type t = {
  cfg : config;
  ir : Ir.t;  (* owned: mutated in place on policy edits *)
  engine : Engine.t;
  rib : (Prefix.t * Asn.t, Route.t) Hashtbl.t;
  reports : (Prefix.t * Asn.t, Report.route_report option) Hashtbl.t;
  peers : (Prefix.t, Asn.t list) Hashtbl.t;  (* RIB slots by prefix *)
  path_dep : (Prefix.t * Asn.t, unit) Hashtbl.t;
      (* slots whose last verify bypassed the hop memo somewhere *)
  mutable processed : int;
  mutable applied : int;
  mutable abandoned : int;
  mutable rejected : int;
  mutable generations : int;  (* policy edits applied (database patches) *)
  mutable invalidated : int;  (* hop memo entries invalidated, cumulative *)
  mutable windows_rev : window list;
  (* current (open) window accumulators *)
  mutable w_index : int;
  mutable w_start_seq : int;
  mutable w_end_seq : int;
  mutable w_events : int;
  mutable w_announce : int;
  mutable w_withdraw : int;
  mutable w_edit : int;
  mutable w_abandoned : int;
  mutable w_rejected : int;
}

let create ?(config = default_config) ~ir ~rels () =
  let ir = Ir.copy ir in
  let db = Db.build ir in
  let engine_config =
    { Engine.default_config with memoize = true; track_deps = true }
  in
  { cfg = config;
    ir;
    engine = Engine.create ~config:engine_config db rels;
    rib = Hashtbl.create 1024;
    reports = Hashtbl.create 1024;
    peers = Hashtbl.create 1024;
    path_dep = Hashtbl.create 64;
    processed = 0;
    applied = 0;
    abandoned = 0;
    rejected = 0;
    generations = 0;
    invalidated = 0;
    windows_rev = [];
    w_index = 0;
    w_start_seq = 0;
    w_end_seq = 0;
    w_events = 0;
    w_announce = 0;
    w_withdraw = 0;
    w_edit = 0;
    w_abandoned = 0;
    w_rejected = 0 }

let engine t = t.engine
let db t = Engine.db t.engine
let generations t = t.generations
let invalidated t = t.invalidated

let rib_routes t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.rib []
  |> List.sort (fun a b ->
         let c = Prefix.compare a.Route.prefix b.Route.prefix in
         if c <> 0 then c else compare a.Route.path b.Route.path)

let reports t =
  Hashtbl.fold
    (fun key route acc -> (route, Hashtbl.find t.reports key) :: acc)
    t.rib []
  |> List.sort (fun (a, _) (b, _) ->
         let c = Prefix.compare a.Route.prefix b.Route.prefix in
         if c <> 0 then c else compare a.Route.path b.Route.path)

(* ------------------------------------------------------------------ *)
(* Event application                                                   *)
(* ------------------------------------------------------------------ *)

let peer_of route =
  match route.Route.path with Route.Seq a :: _ -> Some a | _ -> None

let slot_of route =
  match peer_of route with
  | Some peer -> Some (route.Route.prefix, peer)
  | None -> None

let verify_slot t key route =
  let bypasses = Engine.bypasses t.engine in
  Hashtbl.replace t.reports key (Engine.verify_route t.engine route);
  if Engine.bypasses t.engine > bypasses then Hashtbl.replace t.path_dep key ()
  else Hashtbl.remove t.path_dep key

let verify_into t route =
  match slot_of route with
  | None -> ()
  | Some ((prefix, peer) as key) ->
      if not (Hashtbl.mem t.rib key) then
        Hashtbl.replace t.peers prefix
          (peer :: Option.value ~default:[] (Hashtbl.find_opt t.peers prefix));
      Hashtbl.replace t.rib key route;
      verify_slot t key route

let withdraw t ((prefix, peer) as key) =
  if Hashtbl.mem t.rib key then begin
    Hashtbl.remove t.rib key;
    Hashtbl.remove t.reports key;
    Hashtbl.remove t.path_dep key;
    match List.filter (fun p -> p <> peer) (Hashtbl.find t.peers prefix) with
    | [] -> Hashtbl.remove t.peers prefix
    | l -> Hashtbl.replace t.peers prefix l
  end

(* Re-verify the routes an edit can have changed: those under a prefix
   whose hop memo entries it removed, and those holding a path-dependent
   hop (never memoized, so no invalidation names them). Every other
   route's hops are memo entries the edit left alone, so its verdict
   stands. *)
let reverify t prefixes =
  let todo = Hashtbl.copy t.path_dep in
  List.iter
    (fun prefix ->
      match Hashtbl.find_opt t.peers prefix with
      | None -> ()
      | Some peers -> List.iter (fun peer -> Hashtbl.replace todo (prefix, peer) ()) peers)
    prefixes;
  Hashtbl.iter (fun key () -> verify_slot t key (Hashtbl.find t.rib key)) todo;
  Obs.Counter.add c_reverified (Hashtbl.length todo)

let blank_aut_num asn =
  { Ir.asn;
    as_name = "STREAMED";
    imports = [];
    exports = [];
    defaults = [];
    member_of = [];
    mnt_by = [];
    source = "STREAM" }

let blank_as_set name =
  { Ir.name;
    member_asns = [];
    member_sets = [];
    contains_any = false;
    mbrs_by_ref = [];
    mnt_by = [];
    source = "STREAM" }

let canon = Rz_rpsl.Set_name.canonical

(* Mutate the IR per the edit; [Ok (edits, stale)] lists what changed in
   the engine's vocabulary and the AS-path patterns the edit took away,
   [Error reason] rejects the event (bad rule text — a journal-content
   problem, not a fault). *)
let apply_policy_edit t (edit : Events.policy_edit) :
    (Engine.edit list * Rz_aspath.Regex_ast.t list, string) result =
  let update_autnum asn f =
    let an =
      match Ir.find_aut_num t.ir asn with
      | Some an -> an
      | None -> blank_aut_num asn
    in
    match f an with
    | Error _ as e -> e
    | Ok an' ->
        Hashtbl.replace t.ir.Ir.aut_nums asn an';
        let kept = Engine.rule_patterns (an'.Ir.imports @ an'.Ir.exports) in
        let stale =
          List.filter
            (fun p -> not (List.mem p kept))
            (Engine.rule_patterns (an.Ir.imports @ an.Ir.exports))
        in
        Ok ([ Engine.Edit_aut_num asn ], stale)
  in
  let drop_nth l i =
    if i < 0 || i >= List.length l then l
    else List.filteri (fun j _ -> j <> i) l
  in
  match edit with
  | Events.Add_import (asn, text) -> (
      match
        Rz_policy.Parser.parse_rule ~direction:`Import ~multiprotocol:false text
      with
      | Error e -> Error ("bad import rule: " ^ e)
      | Ok rule ->
          update_autnum asn (fun an ->
              Ok { an with Ir.imports = an.Ir.imports @ [ rule ] }))
  | Events.Add_export (asn, text) -> (
      match
        Rz_policy.Parser.parse_rule ~direction:`Export ~multiprotocol:false text
      with
      | Error e -> Error ("bad export rule: " ^ e)
      | Ok rule ->
          update_autnum asn (fun an ->
              Ok { an with Ir.exports = an.Ir.exports @ [ rule ] }))
  | Events.Drop_import (asn, i) ->
      update_autnum asn (fun an ->
          Ok { an with Ir.imports = drop_nth an.Ir.imports i })
  | Events.Drop_export (asn, i) ->
      update_autnum asn (fun an ->
          Ok { an with Ir.exports = drop_nth an.Ir.exports i })
  | Events.As_set_add (name, asn) ->
      let key = canon name in
      let s =
        match Ir.find_as_set t.ir key with
        | Some s -> s
        | None -> blank_as_set key
      in
      let s' =
        if List.mem asn s.Ir.member_asns then s
        else { s with Ir.member_asns = asn :: s.Ir.member_asns }
      in
      Hashtbl.replace t.ir.Ir.as_sets key s';
      Ok ([ Engine.Edit_set key ], [])
  | Events.As_set_del (name, asn) -> (
      let key = canon name in
      match Ir.find_as_set t.ir key with
      | None -> Ok ([], [])
      | Some s ->
          let s' =
            { s with
              Ir.member_asns = List.filter (fun a -> a <> asn) s.Ir.member_asns }
          in
          Hashtbl.replace t.ir.Ir.as_sets key s';
          Ok ([ Engine.Edit_set key ], []))
  | Events.Route_add (p, o) ->
      if Hashtbl.mem t.ir.Ir.route_seen (p, o) then Ok ([], [])
      else (
        Ir.add_route t.ir ~prefix:p ~origin:o ~member_of:[] ~mnt_by:[]
          ~source:"STREAM";
        Ok ([ Engine.Edit_route (p, o) ], []))
  | Events.Route_del (p, o) ->
      if not (Hashtbl.mem t.ir.Ir.route_seen (p, o)) then Ok ([], [])
      else
        let member_sets = ref [] in
        Ir.filter_routes t.ir
          (fun r ->
            if Prefix.equal r.Ir.prefix p && r.Ir.origin = o then (
              member_sets := Ir.route_member_of t.ir r @ !member_sets;
              false)
            else true);
        Hashtbl.remove t.ir.Ir.route_seen (p, o);
        let set_edits =
          List.sort_uniq compare !member_sets
          |> List.map (fun s -> Engine.Edit_set (canon s))
        in
        Ok (Engine.Edit_route (p, o) :: set_edits, [])

let apply_event t (ev : Events.event) : (unit, string) result =
  match ev with
  | Events.Announce r ->
      if Route.contains_as_set r || peer_of r = None then
        Error "announce without a usable path head"
      else (verify_into t r; Ok ())
  | Events.Withdraw (p, peer) ->
      withdraw t (p, peer);
      Ok ()
  | Events.Edit e -> (
      match apply_policy_edit t e with
      | Error _ as err -> err
      | Ok ([], _) -> Ok ()  (* no-op edit: nothing referenced changed *)
      | Ok (edits, stale_patterns) ->
          let t0 = Obs.now_ns () in
          Db.patch (db t) edits;
          let removed, prefixes = Engine.apply_edits t.engine ~stale_patterns edits in
          t.invalidated <- t.invalidated + removed;
          t.generations <- t.generations + 1;
          reverify t prefixes;
          Obs.Histogram.observe h_patch_ns (float_of_int (Obs.now_ns () - t0));
          Ok ())

(* ------------------------------------------------------------------ *)
(* Chaos: seeded per-(event, attempt) fault injection                  *)
(* ------------------------------------------------------------------ *)

let chaos_fires plan ~seq ~attempt =
  let rng =
    Splitmix.create
      (plan.Fault.seed lxor (seq * 1000003) lxor (attempt * 0x9E3779B9))
  in
  Splitmix.chance rng plan.Fault.rate

(* ------------------------------------------------------------------ *)
(* Windows                                                             *)
(* ------------------------------------------------------------------ *)

let snapshot_counts t =
  let counts = Aggregate.zero_counts () in
  let routes = ref 0 and excluded = ref 0 in
  Hashtbl.iter
    (fun _ report ->
      match report with
      | None -> incr excluded
      | Some (r : Report.route_report) ->
          incr routes;
          List.iter
            (fun (h : Report.hop) -> Aggregate.counts_add counts h.Report.status)
            r.Report.hops)
    t.reports;
  (counts, !routes, !excluded)

let close_window t =
  let counts, routes, excluded = snapshot_counts t in
  let w =
    { w_index = t.w_index;
      w_start_seq = t.w_start_seq;
      w_end_seq = t.w_end_seq;
      w_events = t.w_events;
      w_announce = t.w_announce;
      w_withdraw = t.w_withdraw;
      w_edit = t.w_edit;
      w_abandoned = t.w_abandoned;
      w_rejected = t.w_rejected;
      w_rib = Hashtbl.length t.rib;
      w_routes = routes;
      w_excluded = excluded;
      w_hops = counts }
  in
  t.windows_rev <- w :: t.windows_rev;
  t.w_index <- t.w_index + 1;
  t.w_start_seq <- 0;
  t.w_end_seq <- 0;
  t.w_events <- 0;
  t.w_announce <- 0;
  t.w_withdraw <- 0;
  t.w_edit <- 0;
  t.w_abandoned <- 0;
  t.w_rejected <- 0

let windows t = List.rev t.windows_rev

let flush t = if t.w_events > 0 then close_window t

let window_to_json (w : window) =
  Json.Obj
    [ ("window", Json.Int w.w_index);
      ("start_seq", Json.Int w.w_start_seq);
      ("end_seq", Json.Int w.w_end_seq);
      ("events", Json.Int w.w_events);
      ("announce", Json.Int w.w_announce);
      ("withdraw", Json.Int w.w_withdraw);
      ("edit", Json.Int w.w_edit);
      ("abandoned", Json.Int w.w_abandoned);
      ("rejected", Json.Int w.w_rejected);
      ("rib", Json.Int w.w_rib);
      ("routes", Json.Int w.w_routes);
      ("excluded", Json.Int w.w_excluded);
      ("hops",
       Json.Obj
         (List.map
            (fun (label, n) -> (label, Json.Int n))
            (Aggregate.counts_classes w.w_hops))) ]

(* ------------------------------------------------------------------ *)
(* Feeding                                                             *)
(* ------------------------------------------------------------------ *)

type feed_result = Applied | Abandoned | Rejected of string

let tally t (item : Events.item) result =
  t.processed <- t.processed + 1;
  if t.w_events = 0 then t.w_start_seq <- item.Events.seq;
  t.w_end_seq <- item.Events.seq;
  t.w_events <- t.w_events + 1;
  (match item.Events.ev with
  | Events.Announce _ -> t.w_announce <- t.w_announce + 1
  | Events.Withdraw _ -> t.w_withdraw <- t.w_withdraw + 1
  | Events.Edit _ -> t.w_edit <- t.w_edit + 1);
  (match result with
  | Applied -> t.applied <- t.applied + 1
  | Abandoned ->
      t.abandoned <- t.abandoned + 1;
      t.w_abandoned <- t.w_abandoned + 1;
      Obs.Counter.incr c_abandoned
  | Rejected _ ->
      t.rejected <- t.rejected + 1;
      t.w_rejected <- t.w_rejected + 1);
  if t.w_events >= t.cfg.window then close_window t

let feed t (item : Events.item) =
  let t0 = Obs.now_ns () in
  let result =
    match t.cfg.chaos with
    | None -> (
        match apply_event t item.Events.ev with
        | Ok () -> Applied
        | Error e -> Rejected e)
    | Some plan ->
        (* Attempt 1 plus up to [max_retries] retries; each attempt's
           fate is a pure function of (plan seed, event seq, attempt),
           so a chaos run replays bit-identically. *)
        let rec attempt k =
          if chaos_fires plan ~seq:item.Events.seq ~attempt:k then
            if k > t.cfg.max_retries then Abandoned
            else (
              Obs.Counter.incr c_retries;
              if t.cfg.backoff_ms > 0. then
                Unix.sleepf
                  (t.cfg.backoff_ms *. (2. ** float_of_int (k - 1)) /. 1000.);
              attempt (k + 1))
          else
            match apply_event t item.Events.ev with
            | Ok () -> Applied
            | Error e -> Rejected e
        in
        attempt 1
  in
  tally t item result;
  Obs.Histogram.observe h_event_ns (float_of_int (Obs.now_ns () - t0));
  result

(* ------------------------------------------------------------------ *)
(* Pipelined run                                                       *)
(* ------------------------------------------------------------------ *)

type run_stats = {
  r_processed : int;
  r_applied : int;
  r_abandoned : int;
  r_rejected : int;
  r_dropped : int;
  r_sampled : int;
  r_hwm : int;
  r_watchdog_trips : int;
  r_final_policy : Bqueue.policy;
  r_degraded : bool;
}

let run ?(seed = 0) t items =
  let q = Bqueue.create ~policy:t.cfg.policy ~seed ~capacity:t.cfg.queue_capacity () in
  let heartbeat = Atomic.make 0 in
  let finished = Atomic.make false in
  let trips = Atomic.make 0 in
  let producer =
    Domain.spawn (fun () ->
        List.iter (fun item -> ignore (Bqueue.push q item)) items;
        Bqueue.close q)
  in
  let watchdog =
    if t.cfg.watchdog_ms <= 0 then None
    else
      Some
        (Domain.spawn (fun () ->
             let last = ref (-1) in
             while not (Atomic.get finished) do
               Unix.sleepf (float_of_int t.cfg.watchdog_ms /. 1000.);
               let beat = Atomic.get heartbeat in
               if
                 (not (Atomic.get finished))
                 && beat = !last
                 && Bqueue.length q > 0
               then (
                 (* consumer stalled with work queued: degrade so the
                    producer can never wedge behind a full queue *)
                 Atomic.incr trips;
                 Obs.Counter.incr c_watchdog;
                 Bqueue.set_policy q Bqueue.Shed_oldest);
               last := beat
             done))
  in
  let rec consume () =
    match Bqueue.pop q with
    | None -> ()
    | Some item ->
        ignore (feed t item);
        Atomic.incr heartbeat;
        consume ()
  in
  consume ();
  Atomic.set finished true;
  Domain.join producer;
  Option.iter Domain.join watchdog;
  flush t;
  let dropped = Bqueue.dropped q and sampled = Bqueue.sampled q in
  let trips = Atomic.get trips in
  { r_processed = t.processed;
    r_applied = t.applied;
    r_abandoned = t.abandoned;
    r_rejected = t.rejected;
    r_dropped = dropped;
    r_sampled = sampled;
    r_hwm = Bqueue.hwm q;
    r_watchdog_trips = trips;
    r_final_policy = Bqueue.policy q;
    r_degraded =
      t.abandoned > 0 || t.rejected > 0 || dropped > 0 || sampled > 0
      || trips > 0 }

(* ------------------------------------------------------------------ *)
(* Views and summaries                                                 *)
(* ------------------------------------------------------------------ *)

let view_of db routes =
  let ir = Db.ir db in
  let autnums =
    Hashtbl.fold (fun asn _ acc -> asn :: acc) ir.Ir.aut_nums []
    |> List.sort compare
  in
  let as_sets =
    Hashtbl.fold (fun name _ acc -> name :: acc) ir.Ir.as_sets []
    |> List.sort compare
  in
  (* newest first: the order the reversed cons list presented, which the
     event generator's goldens depend on *)
  let route_objs =
    let acc = ref [] in
    Ir.iter_routes ir (fun r -> acc := (r.Ir.prefix, r.Ir.origin) :: !acc);
    !acc
  in
  { Events.base_routes = routes; as_sets; autnums; route_objs }

let stats_to_json t (stats : run_stats) =
  Json.Obj
    [ ("processed", Json.Int stats.r_processed);
      ("applied", Json.Int stats.r_applied);
      ("abandoned", Json.Int stats.r_abandoned);
      ("rejected", Json.Int stats.r_rejected);
      ("dropped", Json.Int stats.r_dropped);
      ("sampled", Json.Int stats.r_sampled);
      ("queue_hwm", Json.Int stats.r_hwm);
      ("watchdog_trips", Json.Int stats.r_watchdog_trips);
      ("final_policy", Json.String (Bqueue.policy_name stats.r_final_policy));
      ("degraded", Json.Bool stats.r_degraded);
      ("generations", Json.Int t.generations);
      ("invalidated", Json.Int t.invalidated);
      ("hop_memo", Json.Int (Engine.hop_memo_size t.engine));
      ("nfa_cache", Json.Int (Engine.nfa_cache_size t.engine));
      ("rib", Json.Int (Hashtbl.length t.rib));
      ("windows", Json.List (List.map window_to_json (windows t))) ]
