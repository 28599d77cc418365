(** The intermediate representation (IR): the paper's central data
    structure. It captures the interpreted meaning of all routing-related
    RPSL objects from one or more IRRs, after lowering from raw RPSL text.

    The IR is pure data; resolution (set flattening, cross-references,
    priority merge across IRRs) lives in [Rz_irr]. *)

type aut_num = {
  asn : Rz_net.Asn.t;
  as_name : string;
  imports : Rz_policy.Ast.rule list;   (** import + mp-import, in order *)
  exports : Rz_policy.Ast.rule list;   (** export + mp-export, in order *)
  defaults : Rz_policy.Ast.default_rule list;  (** default + mp-default (RFC 2622 §6.5) *)
  member_of : string list;             (** as-sets joined via member-of *)
  mnt_by : string list;
  source : string;                     (** IRR the object came from *)
}

type mntner = {
  name : string;    (** maintainer handle, e.g. ["MNT-EXAMPLE"] *)
  auth : string list;   (** auth attributes, kept verbatim *)
  source : string;
}

type as_set = {
  name : string;
  member_asns : Rz_net.Asn.t list;     (** direct ASN members *)
  member_sets : string list;           (** direct nested as-set members *)
  contains_any : bool;                 (** the reserved word ANY appeared in members —
                                           an RPSL misuse the paper reports *)
  mbrs_by_ref : string list;           (** maintainer names, possibly ["ANY"] *)
  mnt_by : string list;
  source : string;
}

(** One member of a route-set: a literal prefix, a nested set (route-set
    or as-set), or an ASN (denoting the prefixes it originates) — each
    with an optional range operator. *)
type route_set_member =
  | Rs_prefix of Rz_net.Prefix.t * Rz_net.Range_op.t
  | Rs_set of string * Rz_net.Range_op.t
  | Rs_asn of Rz_net.Asn.t * Rz_net.Range_op.t

type route_set = {
  name : string;
  members : route_set_member list;
  mbrs_by_ref : string list;
  mnt_by : string list;
  source : string;
}

type peering_set = {
  name : string;
  peerings : Rz_policy.Ast.peering list;
  source : string;
}

type filter_set = {
  name : string;
  filter : Rz_policy.Ast.filter;
  source : string;
}

(** An [inet-rtr] object (RFC 2622 §9): a router, its addresses, and its
    BGP peerings — what peering router expressions name. *)
type inet_rtr = {
  name : string;              (** DNS-style router name (lowercased key) *)
  local_as : Rz_net.Asn.t option;
  ifaddrs : string list;      (** interface addresses, verbatim *)
  bgp_peers : (string * Rz_net.Asn.t) list;  (** (peer address, peer ASN) *)
  rtr_member_of : string list;  (** rtrs- sets joined via member-of *)
  source : string;
}

(** An [rtr-set] object grouping routers. *)
type rtr_set = {
  name : string;
  members : string list;      (** inet-rtr names, addresses, nested rtrs- sets *)
  mbrs_by_ref : string list;
  source : string;
}

(** Route objects are the hot class — the paper's IRRs carry millions of
    them, dwarfing every other table — so their string fields are
    interned: [member_of_ids] / [mnt_by_ids] / [source_id] are ids in
    the IR's {!Pool}. Resolve through {!route_member_of},
    {!route_mnt_by}, {!route_source}, or {!resolve}. *)
type route_obj = {
  prefix : Rz_net.Prefix.t;
  origin : Rz_net.Asn.t;
  member_of_ids : int list;            (** route-sets joined via member-of *)
  mnt_by_ids : int list;
  source_id : int;
}

(** Lowering problems, matching the categories reported in Section 4's
    "RPSL errors" paragraph. *)
type error_kind =
  | Syntax_error of string             (** unparsable rule / member / value *)
  | Invalid_as_set_name
  | Invalid_route_set_name
  | Invalid_peering_set_name
  | Invalid_filter_set_name
  | Bad_origin of string
  | Bad_prefix of string

type error = {
  kind : error_kind;
  cls : string;
  obj_name : string;
  source : string;
}

module Pool = Rz_intern.Intern.Pool
module Arena = Rz_intern.Intern.Arena

type t = {
  aut_nums : (Rz_net.Asn.t, aut_num) Hashtbl.t;
  mntners : (string, mntner) Hashtbl.t;   (** keyed by uppercase handle *)
  inet_rtrs : (string, inet_rtr) Hashtbl.t;   (** keyed by lowercase name *)
  rtr_sets : (string, rtr_set) Hashtbl.t;     (** keyed by canonical name *)
  as_sets : (string, as_set) Hashtbl.t;          (** keyed by canonical (uppercase) name *)
  route_sets : (string, route_set) Hashtbl.t;
  peering_sets : (string, peering_set) Hashtbl.t;
  filter_sets : (string, filter_set) Hashtbl.t;
  pool : Pool.t;  (** interned strings for the hot [route_obj] fields *)
  routes : route_obj Arena.t;                    (** insertion order *)
  route_seen : (Rz_net.Prefix.t * Rz_net.Asn.t, unit) Hashtbl.t;
      (** dedup index over (prefix, origin) pairs, maintained by lowering;
          [Prefix.t] is canonical so structural keys match rendered ones *)
  mutable errors : error list;
}

val create : unit -> t

val copy : t -> t
(** Independent tables over shared (immutable) object records: mutating
    the copy — replacing entries, adding routes — leaves the original
    untouched. Streaming verification copies the IR it is given so the
    caller's database generation stays valid. The pool and route arena
    are copied too. *)

val intern : t -> string -> int
(** Id for [s] in this IR's pool, interning it if new. *)

val resolve : t -> int -> string
(** The string behind a pool id. *)

val route_source : t -> route_obj -> string
val route_member_of : t -> route_obj -> string list
val route_mnt_by : t -> route_obj -> string list

val add_route :
  t ->
  prefix:Rz_net.Prefix.t ->
  origin:Rz_net.Asn.t ->
  member_of:string list ->
  mnt_by:string list ->
  source:string ->
  unit
(** Intern the string fields, mark [(prefix, origin)] in [route_seen],
    and append to the arena. Dedup gating (skip when already seen) is
    the caller's job, as it was with the list representation. *)

val remove_route : t -> prefix:Rz_net.Prefix.t -> origin:Rz_net.Asn.t -> route_obj list
(** Remove every [(prefix, origin)] route object and its [route_seen]
    mark, so a later {!add_route} of the pair is not swallowed. The
    others keep their relative order. Returns the removed objects,
    oldest first. *)

val n_route_objs : t -> int

val iter_routes : t -> (route_obj -> unit) -> unit
(** In insertion order (the order lowering appended them). *)

val iter_routes_rev : t -> (route_obj -> unit) -> unit
(** Newest first — the presentation order of the old reversed cons
    list, kept for consumers whose derived structures (tries, grouped
    lists, stream views) bake that order into goldens. *)

val fold_routes : t -> init:'a -> f:('a -> route_obj -> 'a) -> 'a
(** In insertion order. *)

val error_kind_to_string : error_kind -> string

val n_rules : aut_num -> int
(** Total number of import + export rules of an aut-num. *)

val find_aut_num : t -> Rz_net.Asn.t -> aut_num option
val find_as_set : t -> string -> as_set option
(** Lookup by name; canonicalized internally. *)

val find_route_set : t -> string -> route_set option
val find_peering_set : t -> string -> peering_set option
val find_filter_set : t -> string -> filter_set option
val find_mntner : t -> string -> mntner option
