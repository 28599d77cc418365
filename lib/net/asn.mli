(** Autonomous System Numbers.

    4-byte ASNs are stored in a native [int] (OCaml ints are 63-bit on all
    supported platforms). Accepts the [ASxxx] RPSL form, plain decimal, and
    the asdot notation ([1.5] = 65541) that appears in some registries. *)

type t = int

val of_string : string -> (t, string) result
(** Parse ["AS65000"], ["65000"] or asdot ["1.5"] (case-insensitive).
    The numbers are plain decimal digits: no sign, [_] or radix prefix. *)

val of_decimal : string -> t option
(** A bare decimal ASN, the form of table-dump AS paths, relationship
    files and stream journals: [Some n] when the string is ASCII digits
    whose value is in [0, 4294967295]. No [AS] prefix or asdot. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Canonical ["AS65000"] form. *)

val is_private : t -> bool
(** True for the IANA private-use ranges 64512-65534 and
    4200000000-4294967294. *)

val is_reserved : t -> bool
(** True for 0, 23456 (AS_TRANS), 65535, and 4294967295. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
