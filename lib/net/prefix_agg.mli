(** Prefix-list aggregation — the space optimization BGPq4 applies to
    generated router filters (its [-A] flag): collapse a set of prefixes
    into the minimal list covering exactly the same address space.

    One pass over the sorted input keeps the output as a stack: a prefix
    covered by the top is dropped, otherwise it is pushed and the top two
    are replaced by their parent while they are its two halves. The cost
    is the sort, O(n log n); the pass after it is linear. The result is
    the unique canonical form of the address set: no prefix contains
    another and no two are siblings. *)

val aggregate : Prefix.t list -> Prefix.t list
(** Minimal equivalent prefix list, sorted. Families are aggregated
    independently and may be mixed in the input. *)

val covers_same_space : Prefix.t list -> Prefix.t list -> bool
(** Whether two prefix lists denote the same address set: exact, since
    equal address sets have equal aggregates. *)

val sibling : Prefix.t -> Prefix.t option
(** The other half of this prefix's parent ([None] for length 0). *)

val parent : Prefix.t -> Prefix.t option
