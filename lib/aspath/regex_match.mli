(** AS-path regex matching.

    The matcher is the paper's "symbolic" approach (Appendix B) realised as
    a backtracking simulation: instead of materializing the Cartesian
    product of per-position symbol sets, it asks, per path position,
    whether the concrete ASN matches each AS token — equivalent
    accept/reject behaviour in polynomial time. {!matches_product}
    implements the paper's explicit product construction literally and is
    kept as the oracle of the differential tests. *)

type env = {
  asn_in_set : string -> Rz_net.Asn.t -> bool;
      (** as-set membership test with the set name as written in the regex;
          resolution (recursive flattening) is the caller's concern. *)
  peer_as : Rz_net.Asn.t option;
      (** binding for the [PeerAS] keyword, per BGP session. *)
}

val default_env : env
(** No sets resolvable, no PeerAS bound — set terms match nothing. *)

val matches : ?env:env -> Regex_ast.t -> Rz_net.Asn.t array -> bool
(** [matches regex path] — unanchored search semantics: the regex may
    match any substring of the path unless anchored with [^] / [$].
    [path] is in BGP order: receiving neighbor first, origin last. *)

val matches_product : Regex_ast.t -> Rz_net.Asn.t array -> bool
(** The paper's formulation: build all symbol strings from the Cartesian
    product of per-position symbol sets and test each against the symbolic
    regex. Exponential: more than [100_000] symbol strings raise
    [Invalid_argument]. Only used by tests. *)

val term_matches : env -> Regex_ast.term -> Rz_net.Asn.t -> bool
(** Whether one AS token matches one concrete ASN. *)
