(** IRRd-style query protocol (the interface tools like BGPq4 use to
    resolve sets and prefixes against an IRR server; the paper builds on
    IRRd as the de-facto registry software). This module answers the
    protocol's query language over an in-memory {!Db.t} — the offline
    equivalent of `whois -h rr.ntt.net '!iAS-FOO,1'`.

    Supported queries:
    - [!gAS65000] — IPv4 prefixes originated by the AS
    - [!6AS65000] — IPv6 prefixes originated by the AS
    - [!iAS-FOO] — direct members of an as-set or route-set
    - [!iAS-FOO,1] — recursively flattened members
    - [!aAS-FOO] — aggregated prefix list for all route objects originated
      by the flattened as-set (IRRd's "prefix list for set" query; add
      [!a6] for IPv6)
    - [!mTYPE,KEY] — one object, re-rendered as RPSL ([aut-num], [as-set],
      [route-set], [route])
    - [!r192.0.2.0/24] — route objects matching the prefix exactly;
      [!r192.0.2.1/32,l] — covering (less specific) route objects
    - [!nNAME] — client identification (acknowledged, ignored)
    - [!q] — quit
    - anything else — a RIPE-style plain-text lookup (ASN, set name, or
      prefix), like the [whois] examples in the paper's Appendix A.

    Response framing follows IRRd: [A<length>] + data + [C] on success
    with data, [C] alone for success without data, [D] for "key not
    found", [F <reason>] for errors. *)

type response =
  | Data of string     (** [A<len>\n<data>\nC\n] *)
  | No_data            (** [C\n] *)
  | Not_found_key      (** [D\n] *)
  | Error_resp of string  (** [F <reason>\n] *)
  | Quit

val answer : Db.t -> string -> response
(** Evaluate one query line. *)

val render : response -> string
(** Wire encoding of a response (empty string for [Quit]). *)
