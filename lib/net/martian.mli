(** The [fltr-martian] built-in filter: reserved, private, and otherwise
    unroutable ("bogon") address space, per RFC 2622's fltr-martian object
    updated with the usual operator bogon lists. *)

val is_martian : Prefix.t -> bool
(** True when the prefix is equal to or more specific than a martian
    prefix, or is an overly-long announcement (IPv4 longer than /24, IPv6
    longer than /48) — the same policy the paper's AS199284 example
    encodes. *)
