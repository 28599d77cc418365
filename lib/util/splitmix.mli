(** Deterministic SplitMix64 pseudo-random number generator.

    Used everywhere randomness is needed (topology generation, synthetic IRR
    generation, workload sampling) so that the whole evaluation pipeline is
    reproducible from a single integer seed, independent of the OCaml stdlib
    [Random] implementation. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val next : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choose_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample : t -> int -> 'a array -> 'a array
(** [sample t k arr] returns [k] distinct elements (or all if
    [k >= length]). *)

val weighted : t -> (float * 'a) list -> 'a
(** [weighted t choices] picks proportionally to the weights. Weights must
    be non-negative with a positive sum. *)

val geometric : t -> float -> int
(** [geometric t p] counts Bernoulli(p) failures before the first success;
    mean [(1-p)/p]. Used for heavy-ish tailed counts. *)

val pareto_int : t -> alpha:float -> xmin:int -> max:int -> int
(** Bounded discrete Pareto sample; used for degree / rule-count tails. *)
