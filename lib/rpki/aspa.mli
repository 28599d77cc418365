(** Autonomous System Provider Authorization (the ASPA draft the paper
    cites as [10]) — each participating customer AS attests its complete
    set of providers; validators use the attestations to check that an
    AS_PATH is plausibly valley-free.

    Path verification here is the draft's algorithm in simplified form,
    over the path as observed at a route collector (origin to collector
    peer): the path must climb provider edges to a single apex (allowing
    one lateral peer hop) and then descend. A hop is {e provably not
    authorized} when the customer published an ASPA that omits the
    alleged provider; such evidence makes the path [Invalid]. With no
    contradicting evidence but incomplete attestations, the result is
    [Unknown]. *)

type t

val create : unit -> t

val attest : t -> customer:Rz_net.Asn.t -> providers:Rz_net.Asn.t list -> unit
(** Register (or extend) the customer's provider attestation. *)

val size : t -> int

(** Pairwise authorization evidence. *)
type auth =
  | Provider            (** attested: the second AS is a provider of the first *)
  | Not_provider        (** the first AS has an ASPA that omits the second *)
  | No_attestation

val authorized : t -> customer:Rz_net.Asn.t -> provider:Rz_net.Asn.t -> auth

type result =
  | Valid
  | Invalid
  | Unknown

val verify_path : t -> Rz_net.Asn.t array -> result
(** [verify_path t path] with [path] in wire order (collector peer first,
    origin last), prepending already removed. *)

val of_topology : adoption:float -> Rz_topology.Gen.t -> t
(** Each AS with at least one provider publishes its (complete) ASPA with
    probability [adoption]. *)
