(** IP prefixes (IPv4 and IPv6) — the unit over which RPSL filters and
    route objects are defined. Stored canonically: host bits are zeroed. *)

type addr = V4 of Ipaddr.V4.t | V6 of Ipaddr.V6.t

type t = private { addr : addr; len : int }

val v4 : Ipaddr.V4.t -> int -> t
(** @raise Invalid_argument if [len] is outside [0,32]. *)

val v6 : Ipaddr.V6.t -> int -> t
(** @raise Invalid_argument if [len] is outside [0,128]. *)

val of_string : string -> (t, string) result
(** Parse ["10.0.0.0/8"] or ["2001:db8::/32"]. Host bits are masked off. *)

val of_string_exn : string -> t
val to_string : t -> string

val is_v4 : t -> bool
val is_v6 : t -> bool

val max_len : t -> int
(** 32 for IPv4 prefixes, 128 for IPv6. *)

val bit : t -> int -> bool
(** [bit p i] is the i-th most significant address bit; [i < len p]. *)

val contains : t -> t -> bool
(** [contains super sub]: [sub] is equal to or more specific than
    [super]. Prefixes of different families never contain each other. *)

val compare : t -> t -> int
(** Total order: family, then address bits, then length. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val subnets : t -> int -> t list
(** [subnets p l] enumerates the [2^(l - len p)] subnets of [p] at length
    [l] (same family). Raises [Invalid_argument] when [l < len p] or the
    expansion exceeds 4096 prefixes (guards against absurd sweeps). *)
