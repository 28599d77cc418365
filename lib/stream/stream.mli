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
    malformed edits included.

    Events are fed one at a time on the caller's domain, in order, so a
    run is deterministic end to end. An event whose content is unusable
    (rule text that does not parse, an announce without a usable path
    head) is rejected and leaves no state behind; the run goes on. *)

type t

val create : ?window:int -> ir:Rz_ir.Ir.t -> rels:Rz_asrel.Rel_db.t -> unit -> t
(** [window] is the number of events per aggregate window (default 64).
    The service copies [ir] ({!Rz_ir.Ir.copy}) and owns the copy; the
    caller's IR and any databases built from it stay valid. The engine
    runs memoized with dependency tracking. *)

val engine : t -> Rz_verify.Engine.t
val db : t -> Rz_irr.Db.t
(** The service's database, patched in place by every policy edit. *)

val generations : t -> int
(** Database generations so far: policy edits applied, each one patch. *)

val invalidated : t -> int
(** Cumulative hop-memo invalidations across generations. *)

val reports : t -> (Rz_bgp.Route.t * Rz_verify.Report.route_report option) list
(** Current per-route verdicts in deterministic (prefix, path) order; [None] for
    routes the paper excludes. This is the surface the differential test
    compares against a from-scratch batch verify. *)

(** Outcome of feeding one event. [Rejected] means the event content was
    unusable (e.g. unparsable rule text). [Abandoned] is never returned:
    it is kept only because existing callers still match on it. *)
type feed_result = Applied | Abandoned | Rejected of string

val feed : t -> Rz_routegen.Events.item -> feed_result
(** Apply one event synchronously. Window accounting advances; a full
    window closes automatically. *)

(** {1 Windowed aggregates} *)

type window = {
  w_index : int;
  w_start_seq : int;
  w_end_seq : int;
  w_events : int;
  w_announce : int;
  w_withdraw : int;
  w_edit : int;
  w_rejected : int;
  w_rib : int;
  w_routes : int;
  w_excluded : int;
  w_hops : Rz_verify.Aggregate.counts;  (** hop statuses over the RIB at window close *)
}

val windows : t -> window list
val flush : t -> unit
(** Close a partially filled trailing window, if any. *)

(** {1 Run} *)

type run_stats = {
  r_processed : int;
  r_applied : int;
  r_rejected : int;
  r_degraded : bool;  (** an event was rejected — the CLI's exit-2 signal *)
}

val run : t -> Rz_routegen.Events.item list -> run_stats
(** {!feed} every item in order, then {!flush}. *)

val stats_to_json : t -> run_stats -> Rz_json.Json.t
(** Full run summary: stats, cache sizes, and every window. *)

val view_of : Rz_irr.Db.t -> Rz_bgp.Route.t list -> Rz_routegen.Events.world_view
(** Extract the event generator's target universe from a built world:
    its aut-nums, as-sets, route objects, and the given base routes. *)
