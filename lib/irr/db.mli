(** The queryable IRR database: an {!Rz_ir.Ir.t} plus the resolution
    machinery route verification needs — indirect set members
    ([member-of] / [mbrs-by-ref]), memoized recursive as-set and route-set
    flattening with cycle cutting, and a prefix trie over [route]
    objects for covering-prefix queries (the paper's "binary search over
    each AS's route objects" made family-generic). *)

type t

val build : Rz_ir.Ir.t -> t
(** Index an already-lowered IR. The IR must not be mutated afterwards,
    except by an owner that reports each change through {!patch}. *)

val ir : t -> Rz_ir.Ir.t

val priority_order : string list
(** The paper's Table 1 IRR priority: authoritative registries first
    (APNIC, AFRINIC, ARIN, LACNIC, RIPE, IDNIC, JPIRR), then RADB, then
    the other databases (NTTCOM, LEVEL3, TC, REACH, ALTDB). *)

val of_dumps : (string * string) list -> t
(** [of_dumps [(source, rpsl_text); ...]] lowers the dumps in the given
    order (which should be priority order — see {!priority_order}) with
    {!Rz_ir.Lower.add_dump} and builds the database. The line-based
    reference that the tests hold [Rz_ingest.Ingest.db_of_dumps] to;
    product paths call that instead. *)

(** {1 Resolution bounds}

    Set flattening recurses over untrusted registry data, so it runs
    under hard bounds: nesting depth, per-call work (set expansions, see
    {!max_flatten_work}), and materialized route-set members. A bound hit degrades to
    a partial result — never an exception or unbounded memory — records
    the root set in {!truncated_sets}, and increments the
    [flatten.truncated] counter. A truncated answer is never reused
    inside another set's resolution, and a route-set that reads a
    truncated as-set is flagged too. Partial results are conservative
    for verification: missing members can only push routes toward
    Unverified.

    Within the bounds, answers do not depend on query order: a set whose
    resolution hits no bound answers as a fresh database asked for it
    first does, whatever was asked before. *)

val max_flatten_depth : int
(** Nesting-depth cap (64); the paper flags real-world depth >= 5 as
    anomalous, so legitimate data sits far below this. *)

val max_flatten_work : int
(** Set expansions per top-level flatten (10_000). An expansion is one
    visit to a set name that is neither on the current path nor memoized
    as a caller-independent answer; unknown names count too. These are
    not distinct sets: a set reached along two paths in one walk, whose
    answer depends on the path (a set in a cycle, say), is expanded and
    counted once per path. *)

val flatten_truncated : t -> string -> bool
(** Whether flattening rooted at this set ever hit a bound. *)

val truncated_sets : t -> string list
(** Canonical names of all bound-hit roots, sorted. *)

(** {1 As-set resolution} *)

module Asn_set : Set.S with type elt = Rz_net.Asn.t

val flatten_as_set : t -> string -> Asn_set.t
(** Transitive ASN members of an as-set, including indirect members via
    [member-of]/[mbrs-by-ref]; empty when the set is unknown. Memoized;
    cycles are cut; bounded per the resolution bounds above. *)

val as_set_exists : t -> string -> bool
val asn_in_as_set : t -> string -> Rz_net.Asn.t -> bool

val as_set_depth : t -> string -> int
(** Nesting depth, as a fresh database gives it: 1 for a flat set,
    1 + max member depth otherwise, where a member that closes a cycle
    back to a set on the way down from this one adds nothing. 0 for
    unknown sets. *)

val as_set_has_loop : t -> string -> bool
(** Whether a cycle is reachable from this set (the set participates in or
    references a loop). *)

(** {1 Route-set resolution} *)

val flatten_route_set : t -> string -> (Rz_net.Prefix.t * Rz_net.Range_op.t) list
(** Transitive prefix members with their effective range operators;
    nested as-sets and ASN members contribute the prefixes those ASes
    originate in [route] objects. Memoized; cycles cut. *)

val route_set_exists : t -> string -> bool

(** {1 Route-object queries} *)

val covering_routes : t -> Rz_net.Prefix.t -> (Rz_net.Prefix.t * Rz_net.Asn.t) list
(** All (declared prefix, origin) route objects whose prefix covers the
    observed prefix (including exact matches), least specific first. *)

val origin_prefixes : t -> Rz_net.Asn.t -> Rz_net.Prefix.t list
(** Prefixes the AS originates in [route] objects. *)

val origin_has_routes : t -> Rz_net.Asn.t -> bool
val exact_origins : t -> Rz_net.Prefix.t -> Rz_net.Asn.t list
(** Origins of route objects for exactly this prefix. *)

val warm_caches : t -> unit
(** Force every memo table (as-set and route-set flattening, depth, loop
    detection) so subsequent queries are read-only — required before
    sharing the database across domains (the [serve] workers). *)

(** {1 Set reference graph} *)

(** {1 In-place patching (streaming edits)}

    A database whose IR changes one object at a time can be patched
    instead of rebuilt: the owner mutates the IR, then reports what
    changed. {!patch} updates the route-object indexes and the indirect
    members, and drops exactly the flattening memo entries the change
    reaches; every other entry stays warm. Only a single-owner database
    may be patched: a database shared across domains is {!copy}'d, and
    the copy patched, warmed and swapped in. The reverse indexes this
    needs are built by {!index} or else by the first {!patch}, so
    {!build} pays nothing for them. *)

(** A policy-object change, named by the object that changed.
    [Edit_aut_num] is a change to that aut-num; when its [member-of] or
    [mnt-by] changed, the sets it claims before or after must be
    reported as [Edit_set] too. [Edit_set] is any change to the set with
    that name in any set class, creation and deletion included.
    [Edit_route] is the addition or removal of the (prefix, origin)
    route object — added means {!Rz_ir.Ir.add_route}, which makes it the
    newest — plus [Edit_set] for its [member-of] targets, when any. *)
type edit =
  | Edit_aut_num of Rz_net.Asn.t
  | Edit_set of string
  | Edit_route of Rz_net.Prefix.t * Rz_net.Asn.t

(** One object on one side of a change: as it stood before, or as it
    stands after. *)
type changed =
  | Aut_num of Rz_ir.Ir.aut_num
  | Route of Rz_ir.Ir.route_obj
  | Set of string  (** any set class, by name *)

val edits_of : Rz_ir.Ir.t -> changed -> edit list
(** The edits that report a change to this object, per {!edit}: an
    aut-num gives [Edit_aut_num] and a route object [Edit_route], each
    plus [Edit_set] for its [member-of] targets; a set gives [Edit_set].
    A change reports the edits of the object before it and after it,
    which covers the sets it leaves and those it joins. The IR resolves
    a route object's interned fields. *)

val patch : t -> edit list -> unit
(** Bring the database up to date with its (already mutated) IR. The
    edits may come in any order, except that route objects added
    together are listed in the order they were added. After it, every
    query answers as it would on [build] of the same IR, in the same
    element order, for every set whose flattening hits no resolution
    bound when it is the first set a fresh [build] is asked for.

    Where a bound is hit, the cut falls where the work ran out, and that
    depends on which sets were already memoized, under [build] as much
    as here. There a patched database may answer with more members than
    a fresh one, but never with a member the set does not have, and it
    lists in {!truncated_sets} only sets that hit a bound on a fresh
    [build]. *)

val index : t -> unit
(** Build the reverse indexes {!patch} needs now rather than on the
    first {!patch}. {!copy} copies them, so indexing a database before
    it is published spares every patched copy of it that cost. *)

val copy : t -> t
(** A private copy: its own IR ({!Rz_ir.Ir.copy}), route trie, indexes,
    memo tables and reverse indexes, sharing only immutable values with
    the original. Patching either leaves the other as it was. *)

val set_ancestors : t -> string -> string list
(** The set with this name and every set that reaches it over set
    references (as-set member sets, route-set set members, set
    references inside a filter-set's filter, peering-set peerings), as
    of the last {!patch}. Cycle-safe. *)

val origin_readers : t -> Rz_net.Asn.t -> string list
(** Every set whose flattening reads the route objects this ASN
    originates: route-sets with an [Rs_asn] member naming it or a member
    as-set whose flattened ASNs include it, and the sets that reach
    those. These reads happen inside {!flatten_route_set}, out of the
    verification engine's sight. *)

(** {1 Other object queries (delegates to the IR)} *)

val find_aut_num : t -> Rz_net.Asn.t -> Rz_ir.Ir.aut_num option
val find_peering_set : t -> string -> Rz_ir.Ir.peering_set option
val find_filter_set : t -> string -> Rz_ir.Ir.filter_set option
