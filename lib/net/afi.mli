(** Address-family identifiers used by [mp-import]/[mp-export] rules
    (RFC 4012): an address family ([ipv4], [ipv6], [any]) qualified by a
    sub-family ([unicast], [multicast], [any]). *)

type family = Ipv4 | Ipv6 | Any_family
type subfamily = Unicast | Multicast | Any_sub

type t = { family : family; sub : subfamily }

val any : t
(** [afi any] / unqualified rules: matches every route. *)

val parse : string -> (t, string) result
(** Parses ["ipv4"], ["ipv6.unicast"], ["any.unicast"], ["any"], ... *)

val to_string : t -> string

val matches_any : t list -> Prefix.t -> bool
(** [matches_any afis p] — true when the list is empty (no restriction) or
    a (unicast) route with this prefix falls under any element. BGP table
    dumps carry unicast routes, so [Multicast]-only afis match no
    observed route. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
