(** Announce/withdraw/churn event streams over a generated world — the
    update-feed counterpart of {!Propagate}'s static collector dumps.

    A stream interleaves BGP-style route events (flap re-announcements,
    path changes, new more-specifics, withdrawals) with policy-object
    edits (aut-num rule changes, as-set membership changes, route-object
    add/remove) — the churn that exercises incremental verification and
    its cache invalidation. Generation is splitmix-seeded: equal seeds
    over equal world views yield equal streams.

    Streams round-trip through a line-oriented {e journal} text format so
    they can be saved, replayed, and fault-injected. The parser is
    hardened: a malformed line (truncation, NUL bytes, unparsable
    fields, out-of-order sequence numbers) is rejected and recorded — on
    the [stream.journal_rejected] counter and in the returned error
    list — while parsing keeps going. *)

(** One policy-object edit. Rule text in [Add_import]/[Add_export] is
    RPSL policy text (e.g. ["from AS64500 accept ANY"]), parsed at
    application time; [Drop_import]/[Drop_export] name the 0-based index
    of the rule to remove. *)
type policy_edit =
  | Add_import of Rz_net.Asn.t * string
  | Drop_import of Rz_net.Asn.t * int
  | Add_export of Rz_net.Asn.t * string
  | Drop_export of Rz_net.Asn.t * int
  | As_set_add of string * Rz_net.Asn.t
  | As_set_del of string * Rz_net.Asn.t
  | Route_add of Rz_net.Prefix.t * Rz_net.Asn.t
  | Route_del of Rz_net.Prefix.t * Rz_net.Asn.t

type event =
  | Announce of Rz_bgp.Route.t
  | Withdraw of Rz_net.Prefix.t * Rz_net.Asn.t
      (** (prefix, collector-side peer AS) — the RIB slot to vacate *)
  | Edit of policy_edit

type item = { seq : int; ev : event }
(** A sequenced stream element; journals carry [seq] explicitly so
    reordering and replay gaps are detectable. *)

(** What the generator may target, extracted from a built world by the
    caller (keeps this module independent of the IRR database types). *)
type world_view = {
  base_routes : Rz_bgp.Route.t list;  (** initial RIB candidates *)
  as_sets : string list;              (** editable as-set names *)
  autnums : Rz_net.Asn.t list;        (** editable aut-num ASNs *)
  route_objs : (Rz_net.Prefix.t * Rz_net.Asn.t) list;
      (** existing route objects (deletion / more-specific targets) *)
}

val generate : seed:int -> n:int -> ?edit_rate:float -> world_view -> item list
(** [n] sequenced events, numbered from 1. [edit_rate] (default [0.05])
    is the per-event probability of a policy edit; the rest split
    between announcements (flaps, path changes, more-specifics, fresh
    routes) and withdrawals of live state. Events degrade gracefully on
    a degenerate view (no routes, no aut-nums): impossible choices fall
    back to whatever remains possible. *)

val render : item list -> string
(** Journal text: one [<seq> A|W|E ...] line per event, newline
    terminated. [parse] inverts it. *)

val parse : string -> item list * (int * string) list
(** Parse journal text. Returns accepted items in input order plus
    [(line number, reason)] rejections. Rejected lines — truncated or
    unknown forms, NUL-containing lines, unparsable routes/prefixes/
    ASNs, sequence numbers not strictly above the last accepted one —
    increment [stream.journal_rejected] and never abort the parse. *)
