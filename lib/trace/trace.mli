(** Structured decision tracing for the verify engine (DESIGN.md,
    "Observability v2").

    Each hop evaluation can emit one bounded provenance {!record} —
    subject aut-num, direction, rule consulted, filter kind, as-set
    expansion path, memo hit/miss, relaxation or safelist trigger, final
    verdict — into one ring buffer. Design constraints mirror
    {!Rz_obs.Obs}:

    - {b Near-zero cost when off.} Producers gate on {!enabled} (one
      [Atomic] read); {!emit} and {!should_sample} re-check it, so a
      disabled tracer never allocates.
    - {b Bounded when on.} The ring holds at most 4096 records (oldest
      records are overwritten, counted in {!dropped});
      [Per_status q] additionally keeps only the first [q] records of
      each verdict class.
    - {b One ring.} Hop records come from the one domain that verifies;
      the ring and its quota ledger sit behind a mutex, so concurrent
      emitters stay correct. *)

(** Sampling policy. [Per_status q] keeps the first [q] records of every
    verdict class ("verified", "relaxed", ...). *)
type sampling = Off | All | Per_status of int

val sampling_to_string : sampling -> string

(** The per-class quota ledger behind [Per_status]: shared by the trace
    ring here and by the serve access log. *)
module Quota : sig
  type t

  val create : unit -> t

  val admit : sampling -> t -> string -> bool
  (** [admit sampling t cls] — whether to keep one more record of class
      [cls]: always under [All], never under [Off], and under
      [Per_status q] while fewer than [q] of [cls] were admitted. A
      [true] counts toward the quota. Not thread-safe. *)
end

val sampling_of_string : string -> sampling option
(** Accepts ["off"], ["all"], ["quota:N"] (N > 0); case-insensitive. *)

(** One hop evaluation's provenance. Plain strings/ints — this module
    sits below [rz_verify] in the dependency order, so verdicts and
    reasons arrive pre-rendered ([Status.to_string] etc.). *)
type record = {
  seq : int;               (** global emission order *)
  t_ns : int;              (** monotonic clock at emission *)
  domain : int;            (** emitting domain id *)
  direction : string;      (** ["import"] or ["export"] *)
  subject : int;           (** aut-num whose policy was consulted *)
  remote : int;            (** PeerAS binding *)
  prefix : string;
  origin : int;
  path_len : int;
  verdict : string;        (** [Status.to_string] *)
  verdict_class : string;  (** [Status.class_label] *)
  rule : string option;    (** rule consulted, clipped rendering *)
  filter_kind : string option;
  as_sets : string list;   (** set names walked during evaluation *)
  memo : string;           (** ["computed"], ["hit"], ["miss"], ["bypass"] *)
  trigger : string option; (** relaxation / safelist / abstain trigger *)
}

val configure : sampling -> unit
(** Set the sampling policy, discarding every already-collected record. Call between runs, not
    while records are being emitted. *)

val enabled : unit -> bool
(** [true] iff the policy is not [Off]. The producer-side fast gate. *)

val sampling : unit -> sampling

val should_sample : string -> bool
(** [should_sample verdict_class] — whether the ring keeps a record of
    this class; a [true] counts toward its [Per_status] quota
    ({!Quota.admit}), so call it once per record, before building it, to
    skip rendering work for drops. *)

val emit : record -> unit
(** Append to the ring ([seq] is overwritten with the record's emission
    number since the last {!configure}). No-op when disabled. *)

val records : unit -> record list
(** Every retained record, in emission order. *)

val kept : unit -> int
(** Records currently retained in the ring. *)

val dropped : unit -> int
(** Records evicted by ring wrap-around since the last {!configure}. *)

val with_sampling : sampling -> (unit -> 'a) -> 'a
(** Run [f] under a forced policy with a fresh ring, restoring the
    previous policy (and discarding the temporary records) afterwards —
    collect {!records} inside [f]. Used by [explain]. *)

val record_to_json : record -> Rz_json.Json.t

val record_to_lines : record -> string list
(** Indentable human-readable rendering, one field per line. *)

(** Chrome [trace_event]-format export of the {!Rz_obs.Obs.Span} tree
    (via {!Rz_obs.Obs.Span.set_sink}) plus sampled hop records, loadable
    in [chrome://tracing] / Perfetto. Spans become complete ("X") events
    and hop records instant ("i") events, with [pid] 1 and [tid] = the
    emitting domain id, so verify/ingest workers each get a lane. *)
module Chrome : sig
  val install : unit -> unit
  (** Start collecting span events (clears any previous collection).
      Spans only fire while {!Rz_obs.Obs.enabled}, so enable the
      registry too. *)

  val uninstall : unit -> unit

  val export : ?records:record list -> unit -> Rz_json.Json.t
  (** The trace-event JSON array: process/thread-name metadata ("M")
      events, one "X" event per collected span, one "i" event per
      [record] (its provenance under ["args"]). Timestamps are
      microseconds rebased to the earliest event. A domain keeps at most
      65536 span events per collection; the process_name event's
      ["args"] carry ["lost_span_events"], the number discarded past
      that bound. *)
end

(** Periodic metrics streaming for long runs: a sampler domain appends
    one JSONL line — [{"elapsed_s": .., "metrics": <Obs registry
    snapshot>}] — to a file every [interval_s] seconds. *)
module Metrics_stream : sig
  type t

  val start : ?interval_s:float -> string -> t
  (** Open (truncate) the file and spawn the sampler domain.
      [interval_s] defaults to 5.0 and clamps to >= 0.01. *)

  val stop : t -> unit
  (** Join the sampler, append one final snapshot line (so even runs
      shorter than the interval produce a record), and close the file. *)
end
