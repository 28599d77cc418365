(** Section-4 characterization: everything behind Table 1, Figure 1,
    Table 2, and the prose statistics on route objects, as-set structure,
    and RPSL errors. *)

(** One row of Table 1. *)
type table1_row = {
  irr : string;
  size_bytes : int;
  n_aut_num : int;
  n_route : int;       (** route + route6 objects (pre-dedup) *)
  n_import : int;      (** import + mp-import attributes *)
  n_export : int;
}

(** Table 2: objects defined vs referenced in rules. *)
type table2 = {
  defined_aut_num : int;
  defined_as_set : int;
  defined_route_set : int;
  defined_peering_set : int;
  defined_filter_set : int;
  ref_overall_aut_num : int;
  ref_overall_as_set : int;
  ref_overall_route_set : int;
  ref_overall_peering_set : int;
  ref_overall_filter_set : int;
  ref_peering_aut_num : int;
  ref_peering_as_set : int;
  ref_peering_peering_set : int;
  ref_filter_aut_num : int;
  ref_filter_as_set : int;
  ref_filter_route_set : int;
  ref_filter_filter_set : int;
}

(** Route-object maintenance statistics (Section 4 prose). *)
type route_stats = {
  n_objects : int;           (** raw route objects across all IRRs *)
  n_prefix_origin : int;     (** unique (prefix, origin) pairs *)
  n_prefixes : int;          (** unique prefixes *)
  multi_object_prefixes : int;      (** prefixes with more than one object *)
  multi_origin_prefixes : int;      (** ... with objects naming different origins *)
  multi_maintainer_prefixes : int;  (** ... with objects by different maintainers *)
}

(** As-set structure statistics (Section 4 prose). *)
type as_set_stats = {
  n_sets : int;
  empty : int;
  singleton : int;           (** exactly one member AS, no nested sets *)
  over_10k : int;            (** flattened size > 10,000 *)
  contains_any : int;        (** the reserved word ANY as a member *)
  recursive : int;           (** references at least one nested set *)
  with_loop : int;           (** among recursive sets, participates in/reaches a loop *)
  depth_5_plus : int;        (** among recursive sets, nesting depth >= 5 *)
}

type error_stats = {
  syntax_errors : int;
  invalid_as_set_names : int;
  invalid_route_set_names : int;
}

type t = {
  table1 : table1_row list;
  rules_per_aut_num : (Rz_net.Asn.t * int) list;
  bgpq4_rules_per_aut_num : (Rz_net.Asn.t * int) list;
  peering_simple_fraction : float;
      (** fraction of peering definitions that are a single ASN or AS-ANY *)
  ases_bgpq4_only : float;
      (** among ASes with rules, fraction whose rules are all
          BGPq4-compatible *)
  filter_kind_histogram : (string * int) list;
      (** top-level filter shape -> count over all factors *)
  table2 : table2;
  route_stats : route_stats;
  as_set_stats : as_set_stats;
  error_stats : error_stats;
}

val compute : dumps:(string * string) list -> Rz_irr.Db.t -> t
(** [dumps] are the raw (IRR name, RPSL text) pairs, each read once by
    {!Rz_rpsl.Reader.scan_string} for Table 1 and the pre-dedup
    route-object statistics; [db] is the already merged database for
    everything else. *)

val ccdf_rules : (Rz_net.Asn.t * int) list -> (int * float) list
(** Figure 1's CCDF over rule counts. *)
