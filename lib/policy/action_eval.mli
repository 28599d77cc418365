(** Interpretation of rule [action] clauses (RFC 2622 §6): given a route's
    BGP attributes, compute the attributes after applying an action list.

    Noteworthy semantics the paper calls out (its footnote 5): RPSL [pref]
    is the {e complement} of BGP LocalPref — [LocalPref = 65535 - pref] —
    so {e lower} pref means more preferred, the opposite of LocalPref.
    Operators unaware of this inversion write rules that do the reverse of
    what they intend; {!apply} implements the RFC faithfully, clamping
    the result to [0, 65535]. *)

type community = int * int
(** [(asn, value)] pair, e.g. [(65535, 666)] for BLACKHOLE. *)

type attrs = {
  local_pref : int option;
  med : int option;
  communities : community list;   (** insertion order, deduplicated *)
  dpa : int option;
  prepends : Rz_net.Asn.t list;   (** ASNs prepended by [aspath.prepend] *)
}

val empty : attrs

val community_to_string : community -> string

val apply : Ast.action list -> attrs -> (attrs, string) result
(** Apply the actions left to right. Supported: [pref=], [med=] (numeric or
    the keyword [igp_cost], which clears the attribute), [dpa=],
    [community=] / [community.={...}] (replace / append; a community is
    ["65000:120"] or one of the RFC 1997 well-known names [NO_EXPORT],
    [NO_ADVERTISE], [NO_EXPORT_SUBCONFED], plus [BLACKHOLE] (RFC 7999)),
    [community.append(...)], [community.delete(...)],
    [aspath.prepend(...)]. Unknown attributes or methods are errors
    (callers typically surface them as RPSL mistakes). *)
