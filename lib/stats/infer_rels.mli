(** AS-relationship inference from RPSL policies — the paper's closing
    suggestion that "RPSL information can also be applied to longstanding
    modeling challenges such as AS-relationship inference" (Siganos &
    Faloutsos pioneered this on Nemecis; we reconstruct it on the IR).

    The signal is rule asymmetry on each declared link:
    - [import: from P accept ANY] with [export: to P announce <own/cone>]
      marks P as a {e provider} of the declaring AS;
    - [export: to C announce ANY] with a selective import from C marks C
      as a {e customer};
    - selective rules in both directions mark a {e peer}. *)

val infer : Rz_irr.Db.t -> Rz_asrel.Rel_db.t
(** Build a relationship database from the evidence. A link present from
    both sides uses the stronger signal; conflicting one-sided evidence
    falls back to peer. *)

type accuracy = {
  inferred : int;         (** links with an inferred relationship *)
  checked : int;          (** of those, links present in the ground truth *)
  correct : int;          (** matching relationship and orientation *)
}

val accuracy : truth:Rz_asrel.Rel_db.t -> Rz_asrel.Rel_db.t -> accuracy
(** Compare inferred relationships against ground truth. *)
