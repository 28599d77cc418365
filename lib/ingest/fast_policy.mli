(** Direct-coded fast path for the dominant import/export rule shapes
    ([[afi <afi>] from|to <word> accept|announce <word>] — the paper's
    98.4%-simple finding), building the identical AST the general
    recursive-descent parser would. Everything else returns [None] and
    must fall back to {!Rz_policy.Parser.parse_rule}, which keeps error
    messages and corner cases byte-identical by construction. *)

val parse_simple :
  direction:[ `Import | `Export ] ->
  multiprotocol:bool ->
  string ->
  Rz_policy.Ast.rule option
(** Recognize one simple rule; [None] means "use the general parser". *)

val cached_rule_parser : unit -> Rz_ir.Lower.rule_parser
(** A fresh memoized parser: fast path first, general parser fallback,
    all results (including errors) cached per (direction,
    multiprotocol, text). The table is not synchronized — one owner at
    a time. *)

val cached_split : unit -> string -> string list
(** A fresh memoized {!Rz_ir.Lower.split_names}: member-list values
    (mnt-by above all) repeat heavily within a dump. Same single-owner
    rule as {!cached_rule_parser}. *)
