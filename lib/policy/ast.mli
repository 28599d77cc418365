(** Abstract syntax of RPSL routing policies (RFC 2622 §5-6, RFC 4012):
    peering expressions, actions, filters, and structured import/export
    expressions with [refine] / [except]. This is the shape the paper's IR
    captures per rule. *)

(** AS expressions appearing in peerings: [AS1], [AS-FOO],
    [AS1 OR AS2 EXCEPT AS3], [AS-ANY]. *)
type as_expr =
  | Asn of Rz_net.Asn.t
  | As_set of string
  | Any_as                       (** the [AS-ANY] keyword *)
  | And of as_expr * as_expr
  | Or of as_expr * as_expr
  | Except_as of as_expr * as_expr

(** Router expressions qualifying a peering (RFC 2622 §5.6): literal
    router addresses, [inet-rtr] names, [rtrs-] router sets, and the
    usual AND/OR/EXCEPT combinations. *)
type router_expr =
  | Rtr_addr of string               (** an IPv4/IPv6 interface address *)
  | Rtr_name of string               (** an inet-rtr DNS-style name *)
  | Rtr_set of string                (** an [rtrs-] set name *)
  | Rtr_and of router_expr * router_expr
  | Rtr_or of router_expr * router_expr
  | Rtr_except of router_expr * router_expr

(** A peering: either a reference to a [peering-set] object or an AS
    expression optionally qualified by router expressions (which the
    engine parses and retains but — like the paper — does not use to
    discriminate sessions, since BGP dumps carry no router identity). *)
type peering =
  | Peering_set_ref of string
  | Peering_spec of {
      as_expr : as_expr;
      remote_router : router_expr option;
      local_router : router_expr option;  (** after [at] *)
    }

(** One action in an [action] clause. *)
type action =
  | Assign of string * string               (** [pref = 200], [med = 10] *)
  | Append_op of string * string list       (** [community .= {64628:20}] *)
  | Method_call of string * string * string list
      (** [community.delete(a, b)] = attribute, method, args *)

(** Filters (RFC 2622 §5.4). Set references carry an optional prefix-range
    operator; the paper explicitly supports the non-standard but common
    [route-set^n] / [route-set^n-m] syntax, as we do for every reference. *)
type filter =
  | Any                                      (** [ANY] *)
  | Peer_as_filter                           (** [PeerAS] *)
  | As_num of Rz_net.Asn.t * Rz_net.Range_op.t
  | As_set_ref of string * Rz_net.Range_op.t
  | Route_set_ref of string * Rz_net.Range_op.t
  | Filter_set_ref of string
  | Prefix_set of (Rz_net.Prefix.t * Rz_net.Range_op.t) list * Rz_net.Range_op.t
      (** [{10.0.0.0/8^+, ...}^24-32]: per-member operators plus an
          optional operator applied to the whole set *)
  | Path_regex of Rz_aspath.Regex_ast.t      (** [<^AS1 AS2+$>] *)
  | Community of string * string list        (** [community(65535:666)] or
                                                 [community.contains(...)]: method name, args *)
  | Fltr_martian                             (** the [fltr-martian] built-in *)
  | And_f of filter * filter
  | Or_f of filter * filter
  | Not_f of filter

(** A peering together with its (optional) action clause. *)
type peering_action = { peering : peering; actions : action list }

(** [<peering-action-list> accept|announce <filter>] — possibly with
    several [from]/[to] clauses sharing one filter (the AS8323 example in
    the paper's Appendix A). *)
type factor = { peerings : peering_action list; filter : filter }

(** A term: an optional per-term [afi] list and one or more factors
    (braced factor lists in structured policies). *)
type term = { afi : Rz_net.Afi.t list; factors : factor list }

(** Structured policy expression (RFC 2622 §6.6). *)
type expr =
  | Term_e of term
  | Except_e of term * expr
  | Refine_e of term * expr

(** A [default:]/[mp-default:] attribute (RFC 2622 §6.5): the peering to
    fall back to when no other route is available, with optional actions
    and a [networks] filter bounding the prefixes the default covers. *)
type default_rule = {
  peering : peering;
  actions : action list;
  networks : filter option;
  multiprotocol : bool;
  afi : Rz_net.Afi.t list;
}

(** A whole [import]/[export] (or [mp-import]/[mp-export]) attribute. *)
type rule = {
  direction : [ `Import | `Export ];
  multiprotocol : bool;       (** came from an mp- attribute *)
  protocol : string option;   (** [protocol BGP4] prefix *)
  into_protocol : string option;
  expr : expr;
}

val router_expr_to_string : router_expr -> string
val filter_to_string : filter -> string
val default_rule_to_string : default_rule -> string
val rule_to_string : rule -> string
(** Render back to RPSL-ish text (canonical spacing); used by the JSON
    export, error messages, and round-trip tests. *)

(** {1 Enumeration}

    The traversals every consumer of the IR shares: the Section 4
    statistics, the linter, the classifiers, and the engine's indexes and
    dependency analyses. Each returns the parts in the order they are
    written in the rule text, so a consumer that keeps the first hit, or
    prints what it finds, sees them as the author wrote them. Evaluators
    and renderers give [AND], [OR], [NOT] and [EXCEPT] a meaning of their
    own and keep their own recursion. *)

val rule_factors : rule -> factor list
(** The factors of every term of the rule: the terms left to right
    across [EXCEPT] and [REFINE] (the term before the keyword first),
    each term's factors in written order. *)

val rule_peerings : rule -> peering_action list
(** The peering-actions of {!rule_factors}, factor by factor, each
    factor's [from]/[to] clauses in written order. *)

val filter_leaves : filter -> filter list
(** The leaves of a filter: every node that is not [And_f], [Or_f] or
    [Not_f], left to right, with the composites looked through (a negated
    leaf is listed like any other). A leaf is its own only leaf. A
    [Filter_set_ref] is a leaf: the set's own filter is not read. *)

val as_expr_leaves : as_expr -> as_expr list
(** The [Asn], [As_set] and [Any_as] leaves of an AS expression, left to
    right, both sides of [And], [Or] and [Except_as] included. A leaf is
    its own only leaf. *)
