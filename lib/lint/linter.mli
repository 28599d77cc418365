(** RPSL linter — the "further RPSL tooling such as linters" the paper
    lists as future work, built from its own findings: each check flags a
    misuse or hygiene problem Sections 4-5 quantify, and the suggested fix
    follows the paper's recommendations (route-sets over ASN filters,
    pruning empty/singleton sets, declaring policies per neighbor). *)

type severity = Error | Warning | Suggestion

(** Every diagnostic the linter can emit. *)
type check =
  | Invalid_set_name            (** name lacks the AS-/RS-/PRNG-/FLTR- prefix (paper: 12 + 17 objects) *)
  | Reserved_word_member        (** as-set contains ANY / AS-ANY (paper: 3 sets) *)
  | Empty_set                   (** no members at all (paper: 14.5% of as-sets) *)
  | Singleton_set               (** one member AS — the set is unnecessary (paper: 32.7%) *)
  | Set_loop                    (** the set participates in or reaches a membership cycle (paper: 3,050 sets) *)
  | Deep_set                    (** nesting depth >= 5 (paper: 3,129 sets) *)
  | Huge_set                    (** flattens to > 10,000 ASNs (paper: 772 sets) *)
  | Unknown_member              (** member references an undefined set *)
  | Export_self_misuse          (** transit AS announces only itself uphill (paper: 64.4% of transit ASes) *)
  | Import_customer_misuse      (** [from C accept C] with a transit customer (paper: 29.8%) *)
  | Filter_without_routes       (** filter references an AS with no route objects *)
  | Zero_rules                  (** aut-num declares no policy at all (paper: 35.2%) *)
  | Missing_direction           (** aut-num has imports but no exports, or vice versa *)
  | Asn_filter_could_be_route_set
      (** ASN / as-set used as a prefix filter — the paper's headline
          recommendation is to use route-sets instead *)
  | Unreferenced_set            (** set defined but never used in any rule (paper: Table 2 gap) *)
  | Undeclared_neighbor         (** rules exist but none covers a known neighbor
                                    (the cause of 98.98% of unverified hops) *)
  | Private_asn_leak            (** rule peering references a private/reserved ASN *)
  | Dangling_maintainer         (** mnt-by references a mntner object absent from
                                    every IRR (only checked when the database
                                    contains mntner objects at all) *)

type diagnostic = {
  check : check;
  severity : severity;
  cls : string;          (** object class the diagnostic is about *)
  obj : string;          (** object name *)
  message : string;      (** human-readable, includes the recommendation *)
}

val diagnostic_to_string : diagnostic -> string

val lint :
  ?rels:Rz_asrel.Rel_db.t ->
  Rz_irr.Db.t ->
  diagnostic list
(** Run every check over the database. Relationship-dependent checks
    (export-self, import-customer, undeclared-neighbor) only fire when
    [rels] is given. Diagnostics are sorted by severity, then object. *)

val lint_object : Rz_irr.Db.t -> cls:string -> name:string -> diagnostic list
(** Diagnostics restricted to one object (relationship-free checks only). *)
