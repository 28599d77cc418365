(** Pipeline observability: domain-safe counters, gauges, log-bucketed
    latency histograms, rolling time windows, and monotonic-clock phase
    spans, collected in a global registry that renders to human-readable
    text, JSON, and the Prometheus text exposition format.

    Design constraints (see DESIGN.md, "Observability"):

    - {b Near-zero cost when disabled.} Every hot-path operation first
      reads one [Atomic] flag and returns immediately when the registry
      is disabled (the default). Instrumented libraries can therefore
      create metrics unconditionally at module-init time.
    - {b Domain safety.} Counters, gauges, histogram buckets, and window
      slots are [Atomic]-backed, so concurrent increments from worker
      domains (the [serve] query workers, the [stream] pipeline stages)
      are never lost. Span nesting state is domain-local
      ([Domain.DLS]); the accumulated per-name statistics are atomics.
    - {b Naming.} Metric names follow [subsystem.metric_name], e.g.
      [verify.hops_total], [irr.as_flat.hits]. Counters that only ever
      grow end in [_total] or a [.hits]/[.misses] pair. *)

val enable : unit -> unit
(** Turn metric collection on (process-wide). Call before spawning
    worker domains so the flag write happens-before their reads. *)

val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Zero every registered counter, gauge, histogram, window, and span
    accumulator, and clear the {!Meta} table. Registration survives;
    used by tests and long-running servers. *)

val now_ns : unit -> int
(** Monotonic clock, nanoseconds since an arbitrary epoch. For ad-hoc
    latency measurements feeding {!Histogram.observe}; {!Span.with_} is
    the higher-level interface. *)

module Counter : sig
  type t

  val make : string -> t
  (** Register (or look up) the counter with this name. Idempotent:
      two [make "x"] calls return the same underlying counter. *)

  val incr : t -> unit
  val add : t -> int -> unit
  (** No-ops while the registry is disabled. *)

  val get : t -> int
  val name : t -> string
end

module Gauge : sig
  (** Settable point-in-time values (active sessions, in-flight queries,
      current generation). Unlike counters they go up {i and} down and
      are exported with Prometheus type [gauge]. *)

  type t

  val make : string -> t
  (** Idempotent per name, like {!Counter.make}. *)

  val set : t -> int -> unit
  val add : t -> int -> unit
  val incr : t -> unit
  val decr : t -> unit
  (** No-ops while the registry is disabled. *)

  val get : t -> int
  val name : t -> string
end

module Histogram : sig
  (** Log-bucketed histogram over non-negative values. Bucket [i >= 1]
      covers [gamma^(i-1), gamma^i); values below [1.0] (and negatives)
      land in the underflow bucket 0. Quantile extraction returns the
      geometric midpoint of the selected bucket, so its relative error
      is bounded by [sqrt gamma] < one bucket width. *)

  type t

  val make : ?gamma:float -> string -> t
  (** [gamma] is the bucket growth factor, default [2^(1/4)] (~19% wide
      buckets, <= 9% quantile error). Must exceed 1.0. Idempotent per
      name; a differing [gamma] on a second [make] is ignored. *)

  val observe : t -> float -> unit
  (** Record one value. No-op while disabled. *)

  val count : t -> int

  val counts : t -> int array
  (** A consistent single-pass copy of the bucket counts. All derived
      statistics (count + rank selection) must come from one such copy;
      {!quantile} does this internally, so a scrape racing concurrent
      [observe] calls can never pair a count with bucket contents from a
      different moment (the torn-read bug pinned in suite_obs). *)

  val quantile : t -> float -> float
  (** [quantile h q] selects the bucket holding the observation of rank
      [max 1 (ceil (q * count))] (1-based, cumulative from the lowest
      bucket) and returns that bucket's geometric-midpoint
      representative. Degenerate inputs are pinned as follows (tested in
      suite_obs):

      - {b empty histogram}: [0.0] for every [q] — the only case that
        can return a value no bucket represents;
      - {b single observation}: every [q] (including 0 and 1) returns
        the same value, the representative of that observation's bucket;
      - {b q = 0.0}: rank clamps to 1, i.e. the lowest occupied bucket's
        representative (never a bucket below every observation);
      - {b q = 1.0}: rank is [count], i.e. the highest occupied bucket's
        representative;
      - {b q outside [0, 1]} (including NaN): clamped into [0, 1], so
        [q < 0] behaves as 0 and [q > 1] as 1;
      - values below 1.0 (and negatives, and non-finite values) share
        the underflow bucket, whose representative is [0.5]. *)

  val gamma : t -> float
  val name : t -> string

end

module Window : sig
  (** Rolling time windows: a ring of time-bucketed slots, each holding
      an event count plus log-bucketed value histogram, giving rolling
      rates (events/sec) and rolling quantiles over the last
      [slots * slot_ms] milliseconds. Old slots are lazily recycled as
      the clock advances; readers only aggregate slots whose epoch falls
      inside the current window.

      All reads and writes accept an explicit [?now_ns] so tests drive
      virtual time deterministically; production callers omit it and get
      the monotonic clock. *)

  type t

  val make : ?slots:int -> ?slot_ms:int -> ?gamma:float -> string -> t
  (** Default 12 slots of 5s each — a 60-second rolling window.
      Idempotent per name (differing geometry on a second [make] is
      ignored, like {!Histogram.make}). *)

  val observe : ?now_ns:int -> t -> float -> unit
  (** Record one event with a value (e.g. latency in ns). No-op while
      disabled. *)

  val total : ?now_ns:int -> t -> int
  (** Events observed inside the rolling window. *)

  val rate : ?now_ns:int -> t -> float
  (** Events per second: {!total} divided by the full window span. A
      window younger than its span under-reports rather than dividing
      by elapsed time. *)

  val counts : ?now_ns:int -> t -> int array
  (** Summed value buckets of the in-window slots. *)

  val quantile : ?now_ns:int -> t -> float -> float
  (** Rolling quantile over the in-window value buckets; same rank
      selection and degenerate-case pins as {!Histogram.quantile}. *)

  val span_ns : t -> int
  val gamma : t -> float
  val name : t -> string

end

module Span : sig
  (** Phase spans on the monotonic clock. Spans nest: entering a span
      inside another simply pushes the per-domain stack; each name
      accumulates (count, total ns, max ns) across all its runs. *)

  val with_ : string -> (unit -> 'a) -> 'a
  (** Time [f] under [name]. Exceptions propagate; the span is still
      recorded. When the registry is disabled this is just [f ()] —
      no clock read. *)

  val depth : unit -> int
  (** Current nesting depth in this domain (0 outside any span). *)

  val count : string -> int
  val total_ns : string -> int
  (** 0 for a name never recorded. *)

  val set_sink : (string -> start_ns:int -> dur_ns:int -> unit) option -> unit
  (** Install (or remove, with [None]) a per-event sink called on every
      span exit with the span name, its monotonic-clock start, and its
      duration. Used by trace-event exporters ({!Rz_trace}); the sink
      runs in the domain that closed the span and must be domain-safe.
      Exceptions it raises are swallowed. Costs one [Atomic] read per
      span exit when unset. *)
end

module Meta : sig
  (** Run metadata (CLI subcommand, seed, wall-clock start, domain
      count, ...) embedded in every {!Registry} snapshot under ["meta"],
      so metrics files and JSONL stream records are self-describing.
      Cleared by {!reset}. *)

  val set : string -> Rz_json.Json.t -> unit
  (** Set (or overwrite) one metadata key. *)

  val clear : unit -> unit

  val list : unit -> (string * Rz_json.Json.t) list
  (** Sorted by key. *)
end

val recovery_counter_names : string list
(** Canonical list of graceful-degradation ("recovery") counters: the
    counters a keep-going run increments instead of crashing. The CLI's
    exit-2 contract (faultinject / rpki / stream) sums exactly this
    list; enumerate new recovery counters here, nowhere else. Kept in
    sync with runtime registration by a suite_obs test: every registered
    counter matching {!looks_like_recovery} must appear here. *)

val looks_like_recovery : string -> bool
(** Whether a counter name carries a recovery-ish suffix
    ([rejected]/[dropped]/[truncated]/[capped], regardless of whether the
    preceding separator is [.] or [_]) and therefore belongs in
    {!recovery_counter_names}. *)

module Registry : sig
  (** A consistent-enough point-in-time view of every registered
      metric. (Individual atomics are read without a global lock;
      counters racing with an in-progress snapshot may differ by the
      increments in flight, which is fine for reporting. Each
      histogram's row, however, is internally consistent: its count and
      quantiles derive from one bucket copy.) *)

  type snapshot

  val snapshot : unit -> snapshot

  val counters : snapshot -> (string * int) list
  (** Sorted by name. *)

  val gauges : snapshot -> (string * int) list
  (** Sorted by name. *)

  val window_stats : snapshot -> (string * (int * float * float * float)) list
  (** [(name, (in-window count, rate per sec, p50, p99))], sorted by
      name. *)

  val spans : snapshot -> (string * (int * int)) list
  (** [(name, (count, total_ns))], sorted by name. *)

  val meta : snapshot -> (string * Rz_json.Json.t) list
  (** The {!Meta} table at snapshot time, sorted by key. *)

  val to_json : snapshot -> Rz_json.Json.t
  (** [{"meta": {..}, "counters": {..}, "gauges": {..},
       "histograms": {name: {count, p50, p90, p99}},
       "windows": {name: {count, rate, p50, p99, span_ns}},
       "spans": {name: {count, total_ns, max_ns}}}] — reparseable with
      {!Rz_json.Json.of_string}. *)

  val to_text : snapshot -> string
  (** Aligned human-readable rendering, spans first. *)
end

val to_prometheus : Registry.snapshot -> string
(** Prometheus text exposition of a snapshot. Dotted metric names map
    to underscores ([serve.query_ns] -> [serve_query_ns]); counters and
    gauges export as themselves with [# TYPE] lines; histograms export
    cumulative [_bucket{le="..."}] series (log-bucket upper bounds, a
    final [+Inf] bucket), [_count], and a bucket-midpoint-approximated
    [_sum]; windows export [_window_count]/[_window_rate]/[_window_p50]/
    [_window_p99]/[_window_span_seconds] gauges; spans export
    [_span_count]/[_span_total_ns] counters and a [_span_max_ns] gauge.
    {!Meta} entries lead the document as [# meta key value] comments.
    Always re-parses with {!parse_prometheus} (round-trip pinned in
    suite_obs). *)

type prom_sample = {
  p_name : string;
  p_labels : (string * string) list;
  p_value : float;
}

val parse_prometheus : string -> (prom_sample list, string) result
(** Strict parser/validator for the Prometheus text exposition format,
    shared by the [prom_check] CLI validator, the test suites, and
    [rpslyzer top]. Enforces: valid metric/label syntax on every sample
    line, a preceding [# TYPE] declaration for every sample's family,
    no duplicate TYPE declarations, no timestamps, and histogram-family
    invariants (every [_bucket] carries [le], bounds strictly increase,
    cumulative counts never decrease, the [+Inf] bucket exists and
    equals [_count], [_sum]/[_count] present). Returns the samples in
    file order, or [Error "line N: reason"]. *)
