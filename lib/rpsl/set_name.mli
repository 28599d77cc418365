(** RPSL set names (RFC 2622 §5): [as-set] names start with [AS-],
    [route-set] names with [RS-], [peering-set] names with [PRNG-], and
    [filter-set] names with [FLTR-]. Hierarchical names are colon-separated
    sequences of set names and ASNs in which at least one component is a
    set name of the expected kind (e.g. [AS8267:AS-KRAKOW]).

    The paper reports 12 invalid as-set names and 17 invalid route-set
    names in the wild; this module is what detects them. *)

type kind = As_set | Route_set | Peering_set | Filter_set

val is_valid : kind -> string -> bool
(** Validity of a (possibly hierarchical) set name of the given kind. *)

val classify : string -> kind option
(** Guess the set kind from the name's components; [None] when no
    component carries a set prefix (e.g. a plain ASN). *)

val canonical : string -> string
(** Uppercased name used as a lookup key (set names are
    case-insensitive). *)

val components : string -> string list
(** Colon-split components. *)
