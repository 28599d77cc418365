(** Thompson-NFA evaluation of AS-path regexes — the paper's symbolic
    formulation made polynomial: AS tokens become the NFA alphabet, each
    observed ASN is mapped to the {e set} of tokens it matches, and the
    subset simulation advances over those sets. Equivalent accept/reject
    behaviour to {!Regex_match.matches} (a qcheck differential property
    enforces it) with worst-case cost O(path · states) regardless of the
    pattern — immune to the backtracking matcher's pathological cases.

    The same-pattern operators [~*]/[~+] need one extra register (the
    pinned ASN) and are handled by running the containing repetition as an
    anchored sub-simulation. *)

type t
(** A compiled matcher. *)

val max_states : int
(** The state budget ([10_000]) — far above any regex observed in real
    IRR dumps, far below what a repetition bomb requests. *)

val compile : Regex_ast.t -> t
(** Compile, refusing patterns whose {!Regex_ast.state_estimate} exceeds
    {!max_states}. A refused pattern yields a {e capped} matcher that
    matches nothing (conservative abstain — it can never claim Verified)
    and increments the [nfa.capped] counter; no state is allocated, so a
    hostile [{m,n}] bomb costs O(pattern text), not O(expansion). *)

val is_capped : t -> bool
(** Whether the state budget was exceeded at compile time. *)

val matches : ?env:Regex_match.env -> t -> Rz_net.Asn.t array -> bool
(** Unanchored search, like {!Regex_match.matches}. Always [false] on a
    capped matcher. *)

val state_count : t -> int
(** Number of NFA states (for tests and the bench report); 0 when capped. *)

(** Compile-once cache: hashconses regex ASTs so each distinct pattern is
    compiled a single time per cache (the verification engine keeps one
    per engine instance instead of recompiling per route). The
    {!state_estimate} cap is decided at compile time inside the cache, so
    a hostile pattern is refused once, not per evaluation. Not
    domain-safe — give each domain its own cache, like each domain gets
    its own engine. *)
module Cache : sig
  type cache

  val create : unit -> cache

  val get : cache -> Regex_ast.t -> t
  (** Look up (incrementing [nfa.compile_hits]) or compile-and-memoize. *)

  val size : cache -> int
  (** Number of distinct patterns compiled so far. *)

  val remove : cache -> Regex_ast.t -> unit
  (** Evict one pattern. The cache is a pure memo (recompiling is always
      semantically safe), so eviction exists for bounded memory under
      policy churn, not correctness: the streaming engine drops patterns
      whose owning aut-num rules were edited away. No-op when absent. *)
end
