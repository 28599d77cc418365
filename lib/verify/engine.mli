(** The route verification engine (paper Section 5).

    For each inter-AS hop of a BGP route, checks the exporter's [export]
    rules and the importer's [import] rules against the route, classifying
    the hop with {!Status.t} in the paper's precedence order and emitting
    Appendix-C style diagnostics.

    A hop is evaluated one of two ways, with the same rule evaluation
    and the same precedence, relaxation and safelist code. {e Verdict
    mode} ({!verify_hop}, {!verify_route}, {!verify_rib}) folds only the
    rules that can name the remote, stops at the first match, and builds
    no diagnostic items: its hops have empty [items] ({!Report.hop}).
    The {e full fold} ({!explain_hop}, {!explain_route}) folds every
    rule of the subject and fills [items] for non-Verified hops; it
    neither reads nor writes the hop memo. Both give the same status,
    attrs and [peering_only].

    Decision tracing ({!Rz_trace.Trace}) decides only whether a hop
    emits a provenance record, never which fold runs; the record's
    rule, filter kind and sets come from what that fold evaluated. *)

type config = {
  paper_compat : bool;
      (** [true] reproduces the paper exactly: community filters and
          future-work regex constructs (ASN ranges, [~] operators) make the
          rule {e skipped}. [false] (the default) evaluates them — except
          community filters, which remain skipped because BGP communities
          are stripped unpredictably en route and cannot be checked against
          collector dumps. *)
  memoize : bool;
      (** [true] (the default) caches hop verdicts per
          [(direction, subject, remote, prefix, origin)] — plus the AS the
          route was received from, for exports — and short-circuits
          repeated hop checks. Gated by a per-[(aut-num, direction)]
          path-freeness analysis: policies that read the AS-path (a
          [Path_regex] filter, possibly hidden behind a filter-set) bypass
          the cache, so memoized results are bit-identical to
          [memoize = false]. Observable via [verify.memo_hits] /
          [verify.memo_misses]. *)
  track_deps : bool;
      (** [true] additionally records, per memoized hop verdict, which
          database objects the evaluation read beyond the memo key — set
          roots consulted and ASNs whose route-object presence gated the
          verdict — in reverse indexes, so {!apply_edits} can invalidate
          exactly the entries a policy-object change can reach. [false]
          (the default) keeps the batch hot path free of the bookkeeping;
          {!apply_edits} then has nothing to consult and the engine must
          not be fed edits. *)
}

val default_config : config
(** [{paper_compat = false; memoize = true; track_deps = false}]. *)

type t

val create : ?config:config -> Rz_irr.Db.t -> Rz_asrel.Rel_db.t -> t
(** [create db rels] — IRR database plus the business-relationship
    database used by the special-case checks. *)

val db : t -> Rz_irr.Db.t
(** The engine's database; a streaming owner patches it in place
    ({!Rz_irr.Db.patch}). *)

val hop_memo_size : t -> int
(** Number of memoized hop verdicts (bounded-memory reporting). *)

val nfa_cache_size : t -> int
(** Number of compiled AS-path NFAs held by the engine's cache. *)

val bypasses : t -> int
(** Hop checks so far that skipped the memo because the subject's
    policies read the AS-path. A caller that compares the count around
    {!verify_route} learns whether the route's verdict can change
    without any memo entry being invalidated. *)

(** {1 Churn-safe invalidation (streaming verification)} *)

(** A policy-object change, as {!Rz_irr.Db.edit}. The caller mutates its
    IR, patches the database ({!Rz_irr.Db.patch}), then reports the same
    edits to {!apply_edits}. Relationship (rels) data is static. *)
type edit = Rz_irr.Db.edit =
  | Edit_aut_num of Rz_net.Asn.t
  | Edit_set of string
  | Edit_route of Rz_net.Prefix.t * Rz_net.Asn.t

val rule_patterns : Rz_policy.Ast.rule list -> Rz_aspath.Regex_ast.t list
(** The AS-path patterns the rules' filters hold, one per occurrence in
    written order — what a caller passes as [stale_patterns] for rules an
    edit takes away. *)

val apply_edits :
  t -> stale_patterns:Rz_aspath.Regex_ast.t list -> edit list -> int * Rz_net.Prefix.t list
(** [apply_edits t ~stale_patterns edits] invalidates every memoized hop
    verdict the edits can reach — via the reverse dependency indexes
    recorded under [track_deps] — evicts the compiled NFAs of
    [stale_patterns] (patterns the edit took away), and drops the
    affected path-freeness and only-provider memo entries and the
    verdict-mode rule index of each edited aut-num. Returns the
    number of hop memo entries removed (also added to
    [stream.invalidations]; NFA evictions count on [stream.nfa_evicted])
    and the distinct prefixes of their keys: a route whose prefix is not
    among them, and whose hop checks all used the memo, keeps its
    verdict. Invalidation is {e sound} (no stale entry survives — the
    streaming differential test proves incremental verdicts equal a
    from-scratch batch) and {e surgical} (an entry is removed only
    through a dependency it recorded). *)

val verify_hop :
  t ->
  direction:[ `Import | `Export ] ->
  subject:Rz_net.Asn.t ->
  remote:Rz_net.Asn.t ->
  prefix:Rz_net.Prefix.t ->
  path:Rz_net.Asn.t array ->
  Report.hop
(** Check one side of one hop, in verdict mode. [subject] is the AS
    whose rules are examined; [remote] the other side of the BGP
    session; [path] is the AS-path as the route travels this hop —
    exporter first, origin last. An empty [path] is read as a route
    originated by [remote]. *)

val explain_hop :
  t ->
  direction:[ `Import | `Export ] ->
  subject:Rz_net.Asn.t ->
  remote:Rz_net.Asn.t ->
  prefix:Rz_net.Prefix.t ->
  path:Rz_net.Asn.t array ->
  Report.hop
(** {!verify_hop} by the full fold: the same hop, with the diagnostic
    [items] of a non-Verified hop. *)

val verify_route : t -> Rz_bgp.Route.t -> Report.route_report option
(** Full walk from the origin: for each adjacent pair, the exporter's
    export check then the importer's import check, each in verdict
    mode. Returns [None] for routes the paper excludes: single-AS paths
    (nothing to verify) and paths containing BGP AS_SETs. Prepending is
    removed first. *)

val explain_route : t -> Rz_bgp.Route.t -> Report.route_report option
(** {!verify_route} by the full fold, each hop as {!explain_hop}
    gives it. *)

val verify_rib :
  t -> Rz_bgp.Route.t array -> (Rz_bgp.Route.t -> Report.route_report option -> unit) -> unit
(** [verify_rib t routes f] verifies a whole RIB: [f route report] for
    every route, [report] being what {!verify_route} returns. It first
    stable-sorts [routes] in place by {!Rz_net.Prefix.compare}, then
    visits them in that order, emptying the hop memo (and, under
    [track_deps], its reverse indexes) at the start and whenever the
    prefix changes. Every memo key holds the prefix, so no hit is lost
    and the memo never holds more than one prefix's hop verdicts. The
    NFA, path-freeness, only-provider and rule-index caches are kept
    for the whole engine. A streaming owner uses {!verify_route}, whose
    memo persists. *)
