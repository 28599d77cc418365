(** Lowering: interpret raw RPSL objects into the IR.

    Feed dumps in {e priority order} (the paper's Table 1 grouping:
    authoritative registries first, then RADB, then the rest): for objects
    defined in several IRRs, the first definition wins; [route] objects are
    keyed by (prefix, origin) so identical pairs from lower-priority IRRs
    are dropped while genuinely different origins accumulate (that
    multiplicity is itself one of the paper's findings). *)

type rule_parser =
  direction:[ `Import | `Export ] ->
  multiprotocol:bool ->
  string ->
  (Rz_policy.Ast.rule, string) result
(** The function that lowers one import/export attribute value. The
    default is {!lower_rule}; [Rz_ingest.Ingest.ingest] substitutes the
    same parser memoized per (direction, multiprotocol, text). *)

val add_objects :
  ?rule_parser:rule_parser ->
  ?split:(string -> string list) ->
  Ir.t ->
  source:string ->
  Rz_rpsl.Obj.t list ->
  unit
(** Lower the routing-related objects of one dump into [ir], skipping
    non-routing classes, never overwriting higher-priority definitions,
    and appending lowering problems to [ir.errors].

    [split] splits one member-list attribute value into names; the
    default is {!split_names} and any substitute must be observationally
    identical (the ingest passes a memoized wrapper). *)

val split_names : string -> string list
(** The default member-list splitter: continuation folding + comma/space
    splitting via {!Rz_policy.Parser.parse_members}. Pure. *)

val add_dump : Ir.t -> source:string -> string -> Rz_rpsl.Reader.error list
(** Parse RPSL text and lower it; returns the reader-level errors (also
    appended to [ir.errors] as syntax errors). *)

val add_reader_errors :
  Ir.t -> source:string -> Rz_rpsl.Reader.error list -> unit
(** Append reader-level errors to [ir.errors] as dump-class syntax
    errors, exactly as {!add_dump} does before lowering — the ingest
    calls this on dumps it parsed with the scanner. *)

val lower_rule :
  direction:[ `Import | `Export ] ->
  multiprotocol:bool ->
  string ->
  (Rz_policy.Ast.rule, string) result
(** Exposed for tests: lower one rule attribute value. *)
