(** Per-hop verification reports, printed in the style of the paper's
    Appendix C example ([OkImport { from: 133840, to: 6939 }],
    [MehExport { ... items: [...] }], ...). *)

type item =
  | Match_remote_as_num of Rz_net.Asn.t
      (** a rule's peering referenced this remote ASN, which is not the hop's
          other AS *)
  | Match_remote_as_set of string
      (** a rule's peering referenced this as-set, which does not contain the
          hop's other AS *)
  | Match_filter_as_num of Rz_net.Asn.t * Rz_net.Range_op.t
      (** peering matched, but this ASN filter rejected the prefix *)
  | Match_filter_as_set of string
  | Match_filter
      (** peering matched but a (non-ASN/as-set) filter rejected the route *)
  | Unrec of Status.unrec_reason
  | Skip of Status.skip_reason
  | Spec of Status.special

type hop = {
  direction : [ `Import | `Export ];
  from_as : Rz_net.Asn.t;   (** exporter side of the hop *)
  to_as : Rz_net.Asn.t;     (** importer side of the hop *)
  status : Status.t;
  items : item list;
      (** diagnostics explaining a non-Verified outcome: filled by the
          full fold ({!Engine.explain_hop}, {!Engine.explain_route}),
          empty from verdict mode ({!Engine.verify_hop},
          {!Engine.verify_route}, {!Engine.verify_rib}) *)
  attrs : Rz_policy.Action_eval.attrs option;
      (** for Verified hops: the BGP attributes the matching rule's
          actions assign (LocalPref via the pref inversion, MED,
          communities, prepends); [None] when no actions applied or the
          hop did not verify *)
  peering_only : bool;
      (** every item is a peering mismatch ([Match_remote_as_num] or
          [Match_remote_as_set]): [true] for a Verified hop, [false]
          when a status reason ends [items], and for an Unverified hop
          [true] iff no factor had a matching peering and a failing
          filter. Computed without [items], so it is set also where
          [items] is left empty (verdict mode). *)
}

type route_report = {
  route : Rz_bgp.Route.t;
  hops : hop list;          (** origin-side hops first; export then import per hop *)
}

val item_to_string : item -> string

val verb_of : hop -> string
(** The Appendix-C verb combining status class and direction, e.g.
    ["OkImport"], ["MehExport"], ["BadExport"]. *)

val hop_to_string : hop -> string
(** E.g. [MehImport { from: 1299, to: 3257, items: [MatchRemoteAsNum(AS12), SpecTier1Pair] }]. *)

