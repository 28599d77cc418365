(** Structured per-query access logging for the query service.

    Opt-in JSONL: one object per logged event with fields [ts] (Unix
    epoch seconds), [peer], [query], [class] (the response class:
    [data]/[no_data]/[not_found]/[error]/[quit]), [rejected] (the guard
    reason, present only on rejected queries), [latency_ns],
    [generation], and [serial] — enough to recompute the server's
    windowed qps and latency quantiles offline (the acceptance
    differential in suite_serve does exactly that against a live [!s]
    scrape).

    Writes never block the query path: records render in the calling
    domain, then enter a bounded queue drained by one writer domain that
    batches flushes. When the queue is at capacity the record is dropped
    and counted on [obs.accesslog_dropped] (a recovery counter — a run
    that lost access-log records exits 2 under the keep-going
    contract).

    Sampling reuses the {!Rz_trace.Trace.sampling} dial ([off] / [all] /
    [quota:N]): under [quota:N] at most N records of each response class
    are kept over the log's lifetime, mirroring rz_trace's bounded
    provenance semantics. *)

type t

val create : ?sampling:Rz_trace.Trace.sampling -> string -> t
(** Open [path] for writing (truncating) and spawn the writer domain.
    At most 1024 records wait in flight; [sampling] defaults to [All]. Spawns a domain, so a process that
    must [Unix.fork] later cannot use this; only the serve path logs
    access. *)

val log :
  t ->
  peer:string ->
  query:string ->
  verdict:string ->
  ?rejected:string ->
  latency_ns:int ->
  generation:int ->
  serial:int ->
  unit ->
  unit
(** Enqueue one record. Never blocks and never raises: a full (or
    closed) queue drops the record on [obs.accesslog_dropped]. *)

val close : t -> unit
(** Drain the queue, flush, join the writer domain, close the file.
    Idempotent. Records logged after [close] are dropped (and
    counted). *)
