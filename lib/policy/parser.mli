(** Recursive-descent parser for RPSL policy attributes.

    Entry points correspond to attribute kinds: whole [import]/[export]
    rules, standalone filters ([filter-set]'s [filter:] attribute),
    peerings ([peering-set]'s [peering:] attribute), and member lists.

    All keywords are case-insensitive. Errors are returned, not raised —
    the caller (IR lowering) records them as the paper's "syntax errors"
    statistic and continues. *)

val parse_rule :
  direction:[ `Import | `Export ] ->
  multiprotocol:bool ->
  string ->
  (Ast.rule, string) result
(** Parse the value of an [import:]/[export:]/[mp-import:]/[mp-export:]
    attribute (everything after the colon). *)

val parse_default :
  multiprotocol:bool -> string -> (Ast.default_rule, string) result
(** Parse a [default:]/[mp-default:] attribute value:
    [to <peering> [action ...] [networks <filter>]]. *)

val parse_filter : string -> (Ast.filter, string) result
(** Parse a standalone filter expression. *)

val parse_peering : string -> (Ast.peering, string) result
(** Parse a standalone peering definition. *)

val parse_members : string -> string list
(** Split a [members:]/[mp-members:] value into member names (comma and/or
    whitespace separated — both appear in the wild). *)
