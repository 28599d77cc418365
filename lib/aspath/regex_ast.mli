(** Abstract syntax of RPSL AS-path regular expressions (RFC 2622 §5.4),
    as written between [<] and [>] in filters, e.g. [<^AS13911 AS6327+$>].

    One path element (an ASN in the observed AS-path) is matched by a
    {!term}; the paper calls these "AS tokens". The extensions the paper
    lists as future work — ASN ranges and the same-pattern operators [~*]
    and [~+] — are part of the AST and fully supported by the matcher. *)

type term =
  | Asn of Rz_net.Asn.t              (** a literal ASN *)
  | Asn_range of Rz_net.Asn.t * Rz_net.Asn.t  (** [AS64496-AS64511] *)
  | As_set of string                 (** an as-set name; membership resolved via the environment *)
  | Peer_as                          (** the [PeerAS] keyword, bound per BGP session *)
  | Wildcard                         (** [.] — any ASN *)
  | Class of bool * term list        (** [\[...\]] set of terms; [true] = negated [\[^...\]] *)

type t =
  | Empty                            (** matches the empty sequence *)
  | Term of term
  | Bol                              (** [^] — beginning of path *)
  | Eol                              (** [$] — end of path *)
  | Seq of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t
  | Repeat of t * int * int option   (** [{m,n}]; [None] = unbounded *)
  | Tilde_star of term               (** [~*]: zero or more of the {e same} ASN *)
  | Tilde_plus of term               (** [~+]: one or more of the {e same} ASN *)

val to_string : t -> string
(** Render back to RPSL syntax (without the surrounding [< >]). *)

val state_estimate : t -> int
(** Saturating upper bound on the number of NFA states {!Regex_nfa.compile}
    would build for this AST. Cheap (proportional to the written regex, not
    its expansion), so callers can reject pathological repetition bombs —
    e.g. [AS1{500000,900000}] — before compiling or matching. *)

val uses_future_work_features : t -> bool
(** True when the regex contains ASN ranges or [~]-operators — the 58
    rules the paper {e skips}; this implementation handles them, but the
    [paper_compat] verification mode uses this predicate to reproduce the
    paper's Skip counts. *)
