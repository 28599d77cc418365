(** Aggregation of hop reports at the paper's three granularities —
    per AS (Figure 2), per AS pair (Figure 3), per route (Figure 4) —
    plus the unrecorded breakdown (Figure 5) and the special-case
    breakdown (Figure 6). *)

(** Hop counts by coarse status class. *)
type counts = {
  mutable verified : int;
  mutable skipped : int;
  mutable unrecorded : int;
  mutable relaxed : int;
  mutable safelisted : int;
  mutable unverified : int;
}

val zero_counts : unit -> counts
val counts_total : counts -> int
val counts_add : counts -> Status.t -> unit
val counts_classes : counts -> (string * int) list
(** [(class label, count)] in the paper's precedence order. *)

type t

val create : unit -> t

val add_route_report : t -> Report.route_report -> unit
(** Fold one route's hop reports in. *)

val n_routes : t -> int
val n_hops : t -> int
(** Total hop checks (each inter-AS link contributes an export and an
    import check). *)

val overall : t -> counts
(** All hop checks pooled: the per-interconnection fractions quoted in the
    paper's abstract (29.3% verified, 40.4% unrecorded, ...). *)

(** {1 Figure 2 — per AS} *)

val per_as_list : t -> (Rz_net.Asn.t * counts * counts) list
(** [(asn, import counts, export counts)] for every AS observed. *)

type per_as_summary = {
  n_ases : int;
  all_same_status : int;      (** single colour across both directions *)
  all_verified : int;
  all_unrecorded : int;
  all_relaxed : int;
  all_safelisted : int;
  all_unverified : int;
  with_skips : int;
  with_unrecorded : int;      (** >= 1 unrecorded check *)
  with_special : int;         (** >= 1 relaxed or safelisted check *)
}

val per_as_summary : t -> per_as_summary

(** {1 Figure 3 — per AS pair} *)

type per_pair_summary = {
  n_pairs : int;                    (** directed pairs x direction *)
  single_status_import : float;     (** fraction of import pairs with one status *)
  single_status_export : float;
  pairs_with_unverified : int;
  unverified_peering_mismatch : float;
      (** among unverified hop checks, fraction whose diagnostics show no
          rule peering covering the neighbor (the paper's 98.98%) *)
}

val per_pair_summary : t -> per_pair_summary

val per_pair_list :
  t -> ([ `Import | `Export ] * (Rz_net.Asn.t * Rz_net.Asn.t) * counts) list
(** Every directed pair with its per-direction counts — the raw series
    behind Figure 3. *)

(** {1 Figure 4 — per route} *)

type per_route_summary = {
  n_routes : int;
  single_status : float;            (** all hops one class *)
  single_verified : float;
  single_unrecorded : float;
  single_unverified : float;
  two_statuses : float;
  three_plus : float;
}

val per_route_summary : t -> per_route_summary

val per_route_list : t -> counts list
(** Per-route status counts, one per route, in sorted order — the raw
    series behind Figure 4. [t] keeps them as a multiset (profile to
    number of routes), so the list does not depend on the order routes
    were added in. *)

(** {1 Figure 5 — unrecorded breakdown (count of ASes with >= 1 case)} *)

type unrec_breakdown = {
  ases_no_aut_num : int;
  ases_no_rules : int;
  ases_zero_route_as : int;
  ases_missing_set : int;
}

val unrec_breakdown : t -> unrec_breakdown

(** {1 Figure 6 — special-case breakdown (count of ASes with >= 1 case)} *)

type special_breakdown = {
  ases_export_self : int;
  ases_import_customer : int;
  ases_missing_routes : int;
  ases_only_provider : int;
  ases_tier1_pair : int;
  ases_uphill : int;
  ases_any_special : int;
}

val special_breakdown : t -> special_breakdown

(** {1 Canonical fingerprint} *)

val fingerprint : t -> string
(** MD5 hex digest of a canonical rendering of the whole aggregate —
    overall counts, every per-AS and per-pair series (sorted), the
    per-route profile multiset (sorted), and both breakdown figures. Two
    aggregates built from the same hop reports fingerprint identically
    regardless of add order; the verify differential gates key on
    this. *)
