(** JSON export of the IR, mirroring the paper's exported representation
    so external tools can consume interpreted RPSL without reimplementing
    the parser. Policies are exported structurally (peerings, actions,
    filters as trees) with a [text] field holding the canonical rendering. *)

val export : Ir.t -> Rz_json.Json.t
(** Whole-IR document: aut-nums, sets, routes, and lowering errors. *)

val export_string : ?indent:int -> Ir.t -> string
(** [export] composed with serialization. *)
