(** One BGP route as observed at a collector: a prefix and its AS-path.

    The AS-path is in wire order — the collector-side neighbor first, the
    origin AS last. Paths may contain prepending (repeated ASNs) and, in
    rare discouraged cases, BGP AS_SETs; the paper removes prepending and
    ignores routes containing AS_SETs (0.03%) before verification. *)

type segment =
  | Seq of Rz_net.Asn.t       (** ordinary AS_SEQUENCE element *)
  | Set of Rz_net.Asn.t list  (** a BGP AS_SET aggregate element *)

type t = {
  prefix : Rz_net.Prefix.t;
  path : segment list;
}

val make : Rz_net.Prefix.t -> Rz_net.Asn.t list -> t
(** Build a route with a plain sequence path. *)

val contains_as_set : t -> bool
val origin : t -> Rz_net.Asn.t option
(** Last path element when it is a plain sequence element. *)

val dedup_path : t -> Rz_net.Asn.t list
(** Plain ASN path with consecutive duplicates (prepending) collapsed.
    Only valid when {!contains_as_set} is false; AS_SET segments are
    skipped. *)

val to_line : t -> string
(** Serialize as the collector dump line format:
    [prefix|asn asn asn|{asn,asn}] — AS_SETs in braces. *)

val of_line : string -> (t, string) result

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
