(** AS business-relationship database — the role CAIDA's AS-relationship
    dataset plays in the paper (special-case checks, Tier-1 clique,
    customer cones). Reads and writes CAIDA's serial-1 text format
    ([<a>|<b>|<rel>] with [-1] = a is provider of b, [0] = peers). *)

type t

type relationship =
  | A_provider_of_b
  | B_provider_of_a
  | Peers
  | Unknown

val create : unit -> t

val add_p2c : t -> provider:Rz_net.Asn.t -> customer:Rz_net.Asn.t -> unit
val add_p2p : t -> Rz_net.Asn.t -> Rz_net.Asn.t -> unit

val relationship : t -> Rz_net.Asn.t -> Rz_net.Asn.t -> relationship
val providers : t -> Rz_net.Asn.t -> Rz_net.Asn.t list
val customers : t -> Rz_net.Asn.t -> Rz_net.Asn.t list
val peers : t -> Rz_net.Asn.t -> Rz_net.Asn.t list
val neighbors : t -> Rz_net.Asn.t -> Rz_net.Asn.t list
val ases : t -> Rz_net.Asn.t list
(** All ASes appearing in any relationship. *)

val is_transit : t -> Rz_net.Asn.t -> bool
(** Has at least one customer. *)

val set_clique : t -> Rz_net.Asn.t list -> unit
(** Declare the Tier-1 clique (CAIDA's serial-1 files carry it in a
    [# input clique] header line, which {!of_string} parses). *)

val clique : t -> Rz_net.Asn.t list
val is_tier1 : t -> Rz_net.Asn.t -> bool

module Asn_set : Set.S with type elt = Rz_net.Asn.t

val customer_cone : t -> Rz_net.Asn.t -> Asn_set.t
(** The AS itself plus everything reachable downward over provider →
    customer edges. Memoized per database. *)

val to_string : t -> string
(** Serialize to serial-1 format, with a [# input clique] header. *)

val of_string : string -> (t, string) result
val load : string -> (t, string) result
(** Read a serial-1 file from disk. *)

val save : t -> string -> unit
