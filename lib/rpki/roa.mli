(** Route Origin Authorizations and Route Origin Validation (RFC 6811) —
    the deployed BGP-security baseline the paper compares the RPSL against
    ("Our analysis ... follows this approach using the RPSL instead",
    Section 6). A ROA authorizes an AS to originate a prefix up to a
    maximum length; ROV classifies a (prefix, origin) pair against the
    covering ROAs.

    Origin validation refines RFC 6811's Invalid into the two failure
    modes the RPKI-misconfiguration literature (CURE, "The Fault in Our
    Drafts") distinguishes: wrong origin vs. announcement longer than any
    authorized maxLength. Collapse with {!coarse} when only the RFC
    three-state outcome matters. *)

type roa = {
  prefix : Rz_net.Prefix.t;
  max_length : int;   (** longest announcement the ROA authorizes *)
  origin : Rz_net.Asn.t;
}

type t

val create : unit -> t
val add : t -> roa -> unit
val size : t -> int

val of_list : roa list -> t
(** Build a table from a ROA list (insertion order preserved per prefix). *)

type state =
  | Valid           (** a covering ROA authorizes this origin at this length *)
  | Invalid_origin  (** covering ROAs exist but none names this origin *)
  | Invalid_length
      (** a covering ROA names this origin, but the announcement is more
          specific than its maxLength allows *)
  | Not_found       (** no covering ROA — the prefix is outside RPKI coverage *)

val validate : t -> Rz_net.Prefix.t -> Rz_net.Asn.t -> state
(** RFC 6811 semantics with the refined Invalid split: Valid if any
    covering ROA matches origin and [len <= max_length]; otherwise
    Invalid_length if some covering ROA matches the origin (only length
    disqualifies), Invalid_origin if covering ROAs exist but none matches
    the origin, Not_found when nothing covers the prefix. Bumps the
    [rpki.rov_total] / [rpki.rov.*] counters. *)

val is_invalid : state -> bool
(** True for [Invalid_origin] and [Invalid_length]. *)

val state_to_string : state -> string
(** ["valid"], ["invalid-origin"], ["invalid-length"], ["not-found"]. *)

val coarse : state -> string
(** RFC 6811 three-state label: ["valid"], ["invalid"], ["not-found"]. *)

(** {1 ROA file interchange}

    Text format consumed and produced by the [gen]/[rpki] CLI surface:
    blank-line-separated entries (so {!Rz_fault} paragraph corruption
    applies naturally), one [prefix,maxLength,origin] triple per line,
    [#] comments. The parser is hostile-input hardened: it never raises
    on malformed text — truncated lines, NUL bytes, embedded CRs, bad
    maxLengths, duplicates are rejected line by line (counted on
    [rpki.roas_rejected]) while well-formed entries load normally
    (counted on [rpki.roas_loaded]). *)

type parse_error = {
  line : int;      (** 1-based line number *)
  text : string;   (** offending line, NUL-sanitized, truncated for display *)
  reason : string;
}

type parsed = {
  table : t;
  roas : roa list;            (** loaded entries in file order *)
  loaded : int;
  n_rejected : int;           (** every rejected line, beyond the recorded cap *)
  rejected : parse_error list;  (** first 64 rejections *)
}

val parse_string : string -> parsed
(** Never raises. A ROA whose [max_length] lies outside
    [[prefix length, address-family bits]] is rejected, as is an exact
    duplicate of an already-loaded entry. *)

val render : roa list -> string
(** Inverse of {!parse_string} for well-formed lists:
    [parse_string (render l)] loads exactly [l] (minus duplicates). *)
