(** Streaming verification: a stateful service that keeps per-route
    verdicts current while a live update feed mutates both the RIB
    (announcements, withdrawals) and the policy database (aut-num,
    as-set, route-object edits).

    The batch pipeline verifies a frozen world once; this module turns
    the engine into a long-lived service. It owns a private copy of the
    IR and, on each policy edit, patches its database in place
    ({!Rz_irr.Db.patch}), invalidates exactly the memoized hop verdicts
    the edit can reach and evicts the NFAs of patterns it took away
    ({!Rz_verify.Engine.apply_edits}), then re-verifies only the routes
    under a prefix whose memo entries went, plus the routes holding a
    path-dependent (never memoized) hop. Every other route keeps its
    verdict, so an edit costs its blast radius, not the registry or RIB
    size ([stream.reverified], [stream.patch_ns]). The streaming
    differential test proves the incremental verdicts equal a
    from-scratch batch verify after every edit of any event sequence,
    faults included.

    Overload and fault handling are explicit: events flow through a
    {!Bqueue} whose policy bounds memory (block / shed-oldest /
    degrade-to-sampling), chaos-injected failures are retried with
    seeded exponential backoff and abandoned after a budget
    ([stream.events_abandoned]), and a watchdog degrades the queue
    policy rather than let a stalled stage wedge the pipeline
    ([stream.watchdog_trips]). The pipeline degrades — it never crashes
    or deadlocks, even at chaos rate 1.0. *)

type config = {
  window : int;           (** events per aggregate window (count-based) *)
  queue_capacity : int;   (** bounded-queue capacity for {!run} *)
  policy : Bqueue.policy; (** initial backpressure policy *)
  chaos : Rz_fault.Fault.plan option;
      (** seeded fault injection: each event application fails with
          probability [rate], deterministically per
          (plan seed, event seq, attempt) *)
  max_retries : int;      (** retries before an event is abandoned *)
  backoff_ms : float;     (** base retry backoff, doubled per attempt; 0 in tests *)
  watchdog_ms : int;      (** stall-detection interval for {!run}; 0 disables *)
}

val default_config : config
(** window 64, capacity 256, [Block], no chaos, 2 retries, 1ms backoff,
    watchdog off. *)

type t

val create : ?config:config -> ir:Rz_ir.Ir.t -> rels:Rz_asrel.Rel_db.t -> unit -> t
(** The service copies [ir] ({!Rz_ir.Ir.copy}) and owns the copy; the
    caller's IR and any databases built from it stay valid. The engine
    runs memoized with dependency tracking. *)

val engine : t -> Rz_verify.Engine.t
val db : t -> Rz_irr.Db.t
(** The service's database, patched in place by every policy edit. *)

val generations : t -> int
(** Database generations so far: policy edits applied, each one patch. *)

val invalidated : t -> int
(** Cumulative hop-memo invalidations across generations. *)

val rib_routes : t -> Rz_bgp.Route.t list
(** Current RIB contents in deterministic (prefix, path) order. *)

val reports : t -> (Rz_bgp.Route.t * Rz_verify.Report.route_report option) list
(** Current per-route verdicts, same order as {!rib_routes}; [None] for
    routes the paper excludes. This is the surface the differential test
    compares against a from-scratch batch verify. *)

(** Outcome of feeding one event. [Rejected] means the event content was
    unusable (e.g. unparsable rule text) — deterministic, unlike
    [Abandoned], which is a chaos budget exhaustion. *)
type feed_result = Applied | Abandoned | Rejected of string

val feed : t -> Rz_routegen.Events.item -> feed_result
(** Apply one event synchronously (chaos, retries and backoff included).
    Window accounting advances; a full window closes automatically. *)

(** {1 Windowed aggregates} *)

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
  w_routes : int;
  w_excluded : int;
  w_hops : Rz_verify.Aggregate.counts;  (** hop statuses over the RIB at window close *)
}

val windows : t -> window list
val flush : t -> unit
(** Close a partially filled trailing window, if any. *)

val window_to_json : window -> Rz_json.Json.t

(** {1 Pipelined run} *)

type run_stats = {
  r_processed : int;
  r_applied : int;
  r_abandoned : int;
  r_rejected : int;
  r_dropped : int;
  r_sampled : int;
  r_hwm : int;            (** queue high-water mark (bounded-memory witness) *)
  r_watchdog_trips : int;
  r_final_policy : Bqueue.policy;  (** differs from the config's after degradation *)
  r_degraded : bool;
      (** any recovery path fired — the CLI's exit-2 signal *)
}

val run : ?seed:int -> t -> Rz_routegen.Events.item list -> run_stats
(** Producer domain -> bounded queue -> consumer (calling domain), with
    the watchdog (when enabled) monitoring consumer heartbeats and
    degrading the queue policy to [Shed_oldest] on a stall. Joins all
    domains and flushes the trailing window before returning. [seed]
    drives [Sample] admission. *)

val stats_to_json : t -> run_stats -> Rz_json.Json.t
(** Full run summary: stats, cache sizes, and every window. *)

val view_of : Rz_irr.Db.t -> Rz_bgp.Route.t list -> Rz_routegen.Events.world_view
(** Extract the event generator's target universe from a built world:
    its aut-nums, as-sets, route objects, and the given base routes. *)
