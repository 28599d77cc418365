(** Long-lived IRRd query service over live database generations.

    The server speaks the {!Rz_irr.Irrd_query} protocol on a TCP or Unix
    socket: an accept loop admits client sessions into a bounded queue
    ({!Bqueue}) drained by a pool of worker domains, each
    session answering query lines against whatever generation its
    {!Generation.store} publishes at the moment the query arrives. One
    control extension, [!u], applies the next pending NRTM journal batch
    as a copy-on-write generation swap, so a scripted client can drive
    registry churn and observe it in subsequent answers.

    Admission guards, all counted on [serve.queries_rejected]:
    over-long query lines (at the socket read layer {e and} in
    {!dispatch}), NUL bytes, embedded CR/LF (injection through the
    in-process paths), and commands truncated by mid-line disconnect.
    Sessions that exceed [max_inflight] are refused at accept time with
    [F server busy] ([serve.sessions_rejected]); a session that stalls
    past the read deadline with bytes pending (slowloris) is dropped
    ([serve.sessions_dropped]). Per-query wall-clock lands in the
    [serve.query_ns] histogram under a [serve.query] span; a query
    running past [query_timeout_ms] has its answer replaced by
    [F query deadline exceeded] ([serve.query_timeouts]). *)

type config = {
  workers : int;           (** worker domains draining the session queue *)
  max_inflight : int;      (** queued sessions beyond which accepts are refused *)
  query_timeout_ms : int;  (** per-query deadline; [0] disables *)
  read_timeout_ms : int;   (** per-read socket deadline (slowloris guard) *)
  max_line_bytes : int;    (** longest admissible query line *)
}

val default_config : config
(** [{ workers = 2; max_inflight = 64; query_timeout_ms = 1_000;
      read_timeout_ms = 10_000; max_line_bytes = 1_024 }] *)

val dispatch :
  ?config:config ->
  ?stats:(unit -> string) ->
  ?sink:
    (query:string ->
     response:Rz_irr.Irrd_query.response ->
     latency_ns:int ->
     rejected:string option ->
     unit) ->
  Rz_irr.Db.t ->
  string ->
  Rz_irr.Irrd_query.response
(** The one shared query path: admission guards, then
    {!Rz_irr.Irrd_query.answer} under the latency span/histogram/window
    and the deadline check. Both the one-shot CLI [query] command and
    every server session route through this. Total: never raises.

    [stats], when given, answers the [!s] control query with
    [Data (stats ())] — the live-telemetry scrape. It rides this same
    guarded path, so it is counted on [serve.queries_total], timed into
    [serve.query_ns]/[serve.query_window], and subject to the deadline
    like any query; server sessions pass the Prometheus exposition
    closure, the one-shot CLI paths pass nothing and [!s] falls through
    to {!Rz_irr.Irrd_query.answer}.

    [sink] fires once per dispatched query with the final response, the
    measured latency (0 for guard-rejected queries), and the guard
    reason if rejected — the access-log hook. *)

val session_lines : Rz_irr.Db.t -> string list -> string
(** In-process session: {!dispatch} each line in order, stop at [!q],
    concatenate the rendered responses — {!Rz_irr.Irrd_query.session}
    with the service guards applied. *)

(** Where to listen (or connect): a loopback TCP port — [Port 0] binds an
    ephemeral port, read it back with {!port} — or a Unix-domain socket
    path. *)
type address = Port of int | Socket of string

type t

val start :
  ?config:config ->
  ?journal:Rz_synthirr.Nrtm.op list list ->
  ?access_log:Access_log.t ->
  Generation.store ->
  address ->
  t
(** Bind, then spawn the accept domain and [config.workers] worker
    domains; returns once the socket is listening. [journal] is the
    queue of pending NRTM batches [!u] applies, oldest first. SIGPIPE is
    set to ignore (a client vanishing mid-write must not kill the
    server). Raises [Unix.Unix_error] if the address cannot be bound.

    [access_log], when given, receives one record per query (including
    [!u] and [!s], and guard rejections) with the session's peer address
    and the live generation/serial. The caller owns the log: close it
    after {!stop}.

    Live telemetry registered by this module: gauges
    [serve.sessions_active], [serve.generation], [serve.serial],
    [serve.queue_depth] (refreshed on each [!s] scrape), and 60-second
    rolling windows [serve.query_window] (latency) and
    [serve.reject_window] (guard rejections). The [!s] exposition also
    carries [# meta generation_fingerprint] (cached per generation) and
    [# meta stopping]. *)

val port : t -> int
(** The bound TCP port (the ephemeral one under [Port 0]); [0] for a
    Unix-socket server. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, drain queued sessions, join every
    domain, unlink the Unix socket. Idempotent. In-flight sessions run
    to completion. *)

val client : address -> string list -> string
(** Loopback client for scripted drills: connect, send each query line
    (appending [!q] if absent so the server closes the session), and
    return everything the server wrote until EOF. Raises
    [Unix.Unix_error] if the connection fails. *)

val client_raw : address -> ?stall_s:float -> string -> string
(** Hostile-corpus client: write [bytes] exactly as given (no newline or
    [!q] appended), optionally sleep [stall_s] with the send side still
    open (slowloris), then shut down writing and drain the reply. For
    driving the [test/fixtures/query_*.txt] corpus through the real
    admission path. *)
