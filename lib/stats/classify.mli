(** Classify ASes by their RPSL usage style — the paper's future-work item
    "classifying ASes by RPSL usage". Categories mirror the usage patterns
    Section 4 identifies; classification is purely syntactic, from the
    AS's parsed objects. *)

type style =
  | Unregistered       (** no aut-num in any IRR *)
  | Silent             (** aut-num with zero rules *)
  | Open_policy        (** an AS-ANY / ANY rule in each direction — exchange-style openness *)
  | Provider_only      (** rules reference only its upstreams (needs [rels]) *)
  | Simple             (** per-neighbor rules, all BGPq4-compatible *)
  | Expressive         (** uses regex, communities, composite filters, or structured policies *)

type profile = {
  asn : Rz_net.Asn.t;
  style : style;
  n_rules : int;
  n_neighbors_declared : int;  (** distinct ASNs referenced in peerings *)
  uses_sets : bool;            (** references as-/route-sets in filters *)
  multiprotocol : bool;        (** has mp- rules *)
}

val style_to_string : style -> string

val classify_all :
  ?rels:Rz_asrel.Rel_db.t ->
  observed:Rz_net.Asn.t list ->
  Rz_irr.Db.t ->
  profile list
(** Classify every AS in [observed] (e.g. all ASes seen in BGP paths),
    producing [Unregistered] profiles for those without aut-nums. *)

val histogram : profile list -> (style * int) list
(** Count per style, in declaration order. *)
