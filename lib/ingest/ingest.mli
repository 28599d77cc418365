(** Multi-IRR ingestion with an IR snapshot cache.

    [ingest] parses and lowers the per-IRR dumps in one sequential pass,
    in priority order, preserving {!Rz_irr.Db}'s inter-IRR
    first-definition-wins semantics: the result is byte-identical (via
    {!Rz_ir.Ir_json}) to the [Lower.add_dump] loop of
    {!ingest_sequential}, for any input. Counters:
    [ingest.parallel.domains] (one per [ingest] call),
    [snapshot.hits]/[snapshot.misses] (plus [snapshot.rejects] from
    {!Rz_ir.Ir_snapshot}). *)

val ingest_sequential : (string * string) list -> Rz_ir.Ir.t
(** The sequential oracle: exactly [Db.of_dumps]'s lowering loop, and
    the differential suite's ground truth. *)

val ingest : ?domains:int -> (string * string) list -> Rz_ir.Ir.t
(** Ingest [(source, rpsl_text)] dumps given in priority order: each
    dump is parsed by {!Rz_rpsl.Reader.scan_string} (spanned as
    ["parse"]) and lowered into one IR (spanned as ["lower"]), with
    {!Rz_policy.Parser.parse_rule} and {!Rz_ir.Lower.split_names} memoized
    per distinct text for the pass.

    [domains] is deprecated: ingestion runs on one domain, and any value
    other than 1 raises [Invalid_argument]. *)

val ingest_cached : snapshot:string -> (string * string) list -> Rz_ir.Ir.t
(** Snapshot-backed ingest: loads [snapshot] when it is valid and was
    built from exactly these dumps (hit); otherwise ingests and
    (re)writes it (miss; a corrupt file additionally counts a reject and
    is never partially loaded). *)

val dumps_digest : (string * string) list -> string
(** The 16-byte MD5 staleness key over the dumps, as stored in a
    snapshot header. *)

val db_of_dumps :
  ?domains:int -> ?snapshot:string -> (string * string) list -> Rz_irr.Db.t
(** {!ingest} (or {!ingest_cached} when [snapshot] is given) followed by
    {!Rz_irr.Db.build}: a drop-in replacement for {!Rz_irr.Db.of_dumps},
    optionally snapshot-cached. [domains] is deprecated as in
    {!ingest}. *)
