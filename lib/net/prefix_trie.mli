(** Binary trie keyed by prefix bits, holding a list of values per exact
    prefix. One trie holds one address family's prefixes; {!t} internally
    keeps one root per family so callers need not split.

    Supports the two queries route verification needs:
    - all entries whose prefix {e covers} a given prefix (walk down the
      observed prefix's bits), used to match a route against declared
      filter prefixes with range operators;
    - all entries {e covered by} a given prefix (subtree enumeration),
      used for customer-cone and more-specific analyses. *)

type 'a t

val create : unit -> 'a t
val add : 'a t -> Prefix.t -> 'a -> unit

val exact : 'a t -> Prefix.t -> 'a list
(** Values stored at exactly this prefix (most recent first). *)

val add_last : 'a t -> Prefix.t -> 'a -> unit
(** Bind behind every existing binding of the prefix, so {!exact} lists
    the value last — as if it had been added before all of them. *)

val remove : 'a t -> Prefix.t -> ('a -> bool) -> unit
(** Drop every value bound at exactly this prefix that satisfies the
    predicate; the order of the rest is kept. Nodes left with no binding
    below them are freed, so adding and then removing a prefix leaves
    the trie as it was. *)

val copy : 'a t -> 'a t
(** A copy that shares no node with the original: adding to or removing
    from either leaves the other as it was. The values are shared. *)

val covering : 'a t -> Prefix.t -> (Prefix.t * 'a) list
(** All (prefix, value) entries whose prefix contains the argument,
    including an exact match; shortest (least specific) first. *)

val length : 'a t -> int
(** Number of (prefix, value) bindings. *)

val iter : (Prefix.t -> 'a -> unit) -> 'a t -> unit
val fold : (Prefix.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
