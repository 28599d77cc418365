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
    order (which should be priority order — see {!priority_order}) and
    builds the database. *)

(** {1 Resolution bounds}

    Set flattening recurses over untrusted registry data, so it runs
    under hard bounds: nesting depth, per-call work (distinct sets
    visited), and materialized route-set members. A bound hit degrades to
    a partial result — never an exception or unbounded memory — records
    the root set in {!truncated_sets}, and increments the
    [flatten.truncated] counter. Partial results are conservative for
    verification: missing members can only push routes toward
    Unverified. *)

val max_flatten_depth : int
(** Nesting-depth cap (64); the paper flags real-world depth >= 5 as
    anomalous, so legitimate data sits far below this. *)

val max_flatten_work : int
(** Distinct sets visited per top-level flatten (10_000). *)

val max_route_set_members : int
(** Materialized (prefix, op) pairs per flattened route-set (200_000). *)

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
(** Nesting depth: 1 for a flat set, 1 + max member depth otherwise;
    members on a cycle do not add depth. 0 for unknown sets. *)

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
    sharing the database across domains for parallel verification. *)

(** {1 Set reference graph} *)

val referenced_sets : t -> string -> string list
(** Canonical names of sets directly referenced by the set object(s) with
    this (canonicalized) name, across every set class: as-set member
    sets, route-set [Rs_set] members, set references inside a
    filter-set's filter, peering-set peerings. Sorted, deduplicated;
    empty for unknown names. Edges are a {e superset} of what evaluation
    can read and ignore the flattening caps, so reachability over them
    over-approximates: invalidation built on it can only widen. *)

(** {1 In-place patching (streaming edits)}

    A database whose IR changes one object at a time can be patched
    instead of rebuilt: the owner mutates the IR, then reports what
    changed. {!patch} updates the route-object indexes and the indirect
    members, and drops exactly the flattening memo entries the change
    reaches; every other entry stays warm. Only a single-owner database
    may be patched (a database shared across domains must be rebuilt
    and swapped). The reverse indexes this needs are built by the first
    {!patch}, so {!build} pays nothing for them. *)

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

val patch : t -> edit list -> unit
(** Bring the database up to date with its (already mutated) IR. The
    edits may come in any order, except that route objects added
    together are listed in the order they were added. After it, every
    query answers as it would on [build] of the same IR, in the same
    element order, for every set whose flattening hits no resolution
    bound when it is the first set a fresh [build] is asked for. (Below
    a reference cycle an answer depends on the order sets are first
    asked for, under [build] too, so compare in one order.)

    Where a bound is hit, the cut falls where the work ran out, and that
    depends on which sets were already memoized, under [build] as much
    as here. There a patched database may answer with more members than
    a fresh one asked in the same order, but never with a member the
    set does not have, and it lists in {!truncated_sets} only sets that
    hit a bound on a fresh [build]. *)

val set_ancestors : t -> string -> string list
(** The set with this name and every set that reaches it over
    {!referenced_sets} edges, as of the last {!patch}. Cycle-safe. *)

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
