(** RPSL-verdict x RPKI-state agreement matrix — the cross-validation the
    related work (CURE, "The Fault in Our Drafts") runs between registry
    data and the RPKI, applied to the paper's Section-5 verdict classes.

    Each BGP route contributes one cell: its row is the route-level RPSL
    verdict class (the worst hop status under the Section-5 precedence,
    or ["excluded"] for single-AS / AS_SET routes) and its column the
    RFC 6811 origin-validation state of its (prefix, origin) pair. The
    matrix is the [stats]-layer artifact behind the [rpki] CLI surface;
    its [rpki --json] rendering on the smoke world is committed byte for
    byte, so any ingestion/verification/ROA-generation change that moves
    a cell fails runtest with the diff. *)

type t

val rpki_states : string list
(** Column labels: ["valid"], ["invalid-origin"], ["invalid-length"],
    ["not-found"]. *)

val create : unit -> t

val add : t -> rpsl:string -> Rz_rpki.Roa.state -> unit
(** Count one route. @raise Invalid_argument on an unknown class label. *)

val add_no_origin : t -> unit
(** Count a route whose AS-path has no plain origin (AS_SET tail):
    it has no ROV subject, so it lands in no cell. *)

val cell : t -> rpsl:string -> rpki:string -> int
val n_no_origin : t -> int

val classified : t -> int
(** Routes in non-[excluded] rows. *)

val total : t -> int
(** All routes with a cell, including the [excluded] row. *)

val agree : t -> int
(** Routes where the two systems concur: both accept (verified /
    relaxed / safelisted x valid), both lack data (unrecorded x
    not-found), or both reject (unverified x either invalid). Skipped and
    excluded rows never agree. *)

val verified_but_rpki_invalid : t -> int
(** RPSL fully verifies the route but ROV rejects it — the
    registry-vs-RPKI conflict class. *)

val unrecorded_but_rpki_valid : t -> int
(** The RPSL has no record but a ROA authorizes the announcement — RPKI
    coverage the registry lacks. *)

val to_rows : t -> string list list
(** Matrix rows for [Rz_util.Table.print]; header = ["rpsl \\ rpki"]
    followed by {!rpki_states}. *)

val to_json : t -> Rz_json.Json.t
(** Fully deterministic (integers only): matrix cells keyed by class and
    state, route totals, and the summary counts. *)

val route_class : Rz_verify.Report.route_report option -> string
(** Row label of one verification outcome: the worst hop status class
    under the Section-5 precedence, ["excluded"] for [None]. *)
