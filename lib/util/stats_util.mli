(** Descriptive statistics helpers used by the characterization and the
    benchmark harness (CCDFs, percentiles, histogram buckets). *)

val ccdf : int list -> (int * float) list
(** [ccdf samples] returns, for each distinct value [v] in ascending order,
    the fraction of samples that are [>= v] (complementary cumulative
    distribution, matching Figure 1's axes). *)

val ccdf_at : int list -> int list -> (int * float) list
(** [ccdf_at samples xs] evaluates the CCDF at the given thresholds:
    fraction of samples [>= x] for each [x]. *)

val percentile : float -> int list -> int
(** [percentile p samples] with [p] in [0,100]; nearest-rank method.
    Raises [Invalid_argument] on an empty list. *)

val mean : int list -> float

val fraction : ('a -> bool) -> 'a list -> float
(** Fraction of elements satisfying the predicate (0 on empty input). *)
