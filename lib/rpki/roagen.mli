(** Synthetic ROA generation from a topology's ground truth — the RPKI
    counterpart of [Rz_synthirr.Generate]. Each adopting AS signs ROAs
    for the prefixes it originates, and configurable fractions of those
    signatures are wrong in the ways the RPKI-vulnerability literature
    (CURE; "The Fault in Our Drafts") documents:

    - {b wrong maxLength}: the operator signs the covering aggregate with
      a maxLength below what it actually announces, so its own
      announcements validate Invalid_length;
    - {b stale origin}: the ROA still names a previous holder after the
      prefix moved (topology churn), so the current announcement
      validates Invalid_origin;
    - {b hostile covering ROA}: an attacker publishes a covering ROA for
      a victim's space under the attacker's ASN with a permissive
      maxLength — the classic downgrade that flips an unsigned victim
      from Not_found to Invalid_origin.

    Deterministic for a config (splitmix-seeded). *)

type config = {
  seed : int;
  adoption : float;            (** probability an AS signs its prefixes *)
  wrong_maxlen_prob : float;   (** per-prefix misconfigured-maxLength chance *)
  stale_origin_prob : float;   (** per-prefix stale-origin chance *)
  hostile_covering_prob : float;  (** per-prefix hostile covering-ROA chance *)
}

val default : config
(** seed 7, adoption 0.8, wrong-maxLength 0.05, stale 0.05, hostile 0.03. *)

type stats = {
  n_clean : int;
  n_wrong_maxlen : int;
  n_stale : int;
  n_hostile : int;
}

type result = {
  roas : Roa.roa list;  (** deterministic order: AS array order, then hostile sweep *)
  stats : stats;
}

val generate : ?config:config -> Rz_topology.Gen.t -> result

val of_topology : adoption:float -> Rz_topology.Gen.t -> Roa.t
(** Clean partial deployment (no misconfigured or hostile ROAs): each
    adopting AS signs maxLength = announced length under its own ASN. *)
