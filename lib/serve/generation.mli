(** Copy-on-write database generations for the long-lived query service.

    A {!store} holds the {e current} generation — a fully built, fully
    warmed {!Rz_irr.Db.t} — behind an [Atomic.t]. Readers (worker domains
    answering IRRd queries) grab the pointer once per query and never see
    a database mutate underneath them: applying an NRTM journal batch
    makes a private copy of the current database ({!Rz_irr.Db.copy}),
    replays each op onto the copy's IR and patches the copy to match
    ({!Rz_irr.Db.patch}), warms it, and publishes it with one atomic
    swap. Nothing is rebuilt. Old generations stay valid for as long as
    some reader still holds them; the GC reclaims them when the last
    reader moves on.

    Warming ({!Rz_irr.Db.warm_caches}) before publication is what makes
    cross-domain sharing safe: it forces every memo table, so the
    published database is read-only. *)

type store

val init : Rz_ir.Ir.t -> store
(** Build generation 1 from a copy of [ir] (the caller's IR stays
    untouched and reusable). Builds the database, warms its caches and
    builds the reverse indexes patching needs ({!Rz_irr.Db.index}), so
    this is the expensive, once-per-server-start step and no swap pays
    for those indexes. *)

val current : store -> Rz_irr.Db.t
(** The live generation. One atomic read; answer a whole query against
    the value returned, not against repeated [current] calls. *)

val generation : store -> int
(** Sequence number of the live generation (1 after {!init}). *)

val last_serial : store -> int
(** Highest NRTM serial applied so far (0 after {!init}). *)

val apply : store -> Rz_synthirr.Nrtm.op list -> int
(** Replay a journal batch as one copy-on-write swap and return the new
    generation number. Ops whose serial is not beyond {!last_serial} are
    skipped (counted on [nrtm.ops_stale]); an op whose paragraph fails to
    re-parse is skipped on [nrtm.ops_rejected]. Applied ops count on
    [nrtm.ops_applied]; the swap's wall-clock (copy + replay + patch +
    warm) lands in the [serve.swap_ns] histogram and [serve.generations]
    counts the publication. Serialized internally — concurrent [apply]
    calls queue on a mutex. An empty (or fully stale) batch publishes
    nothing and returns the current generation number. *)

val fingerprint : Rz_irr.Db.t -> string
(** Canonical content digest of a database's IR: the {!Rz_ir.Ir_json}
    export with route objects sorted (the arena keeps insertion order,
    which differs between incremental replay and batch re-ingest) and
    lowering errors excluded (error lists are path-dependent), hashed.
    Two databases with the same interpreted objects fingerprint
    identically regardless of how they were built — the
    incremental==batch differential in [suite_serve] pins this. *)
