(** Verification statuses for one import or export check, exactly the
    paper's Section 5 classification with its precedence order:
    Verified, Skip, Unrecorded, Relaxed, Safelisted, Unverified. *)

type skip_reason =
  | Community_filter       (** filter uses BGP communities — unobservable in dumps *)
  | Future_work_regex      (** ASN ranges / [~] operators under [paper_compat] *)

type unrec_reason =
  | No_aut_num of Rz_net.Asn.t
  | No_rules               (** aut-num exists but has zero rules in this direction *)
  | Zero_route_as of Rz_net.Asn.t
      (** the filter references an AS that never originates route objects *)
  | Unrecorded_as_set of string
  | Unrecorded_route_set of string
  | Unrecorded_peering_set of string
  | Unrecorded_filter_set of string

(** The six special cases of Section 5.1: three relaxed-filter misuses and
    three safelisted relationships. *)
type special =
  | Export_self
  | Import_customer
  | Missing_routes
  | Only_provider_policies
  | Tier1_pair
  | Uphill

type t =
  | Verified
  | Skipped of skip_reason
  | Unrecorded of unrec_reason
  | Relaxed of special
  | Safelisted of special
  | Unverified

val rank : t -> int
(** Precedence: Verified = 0 (best) … Unverified = 5. *)

val class_label : t -> string
(** One of ["verified"], ["skipped"], ["unrecorded"], ["relaxed"],
    ["safelisted"], ["unverified"] — the coarse classes of Figures 2-4. *)

val to_string : t -> string
val special_to_string : special -> string
val unrec_to_string : unrec_reason -> string
val skip_to_string : skip_reason -> string
