(* Long-lived IRRd query service. See serve.mli. *)

module Irrd_query = Rz_irr.Irrd_query
module Nrtm = Rz_synthirr.Nrtm
module Obs = Rz_obs.Obs
module Json = Rz_json.Json

let c_sessions = Obs.Counter.make "serve.sessions_total"
let c_sessions_rejected = Obs.Counter.make "serve.sessions_rejected"
let c_sessions_dropped = Obs.Counter.make "serve.sessions_dropped"
let c_queries = Obs.Counter.make "serve.queries_total"
let c_rejected = Obs.Counter.make "serve.queries_rejected"
let c_timeouts = Obs.Counter.make "serve.query_timeouts"
let h_query = Obs.Histogram.make "serve.query_ns"

(* live-telemetry surface: point-in-time gauges plus rolling windows
   (default geometry: 12 x 5s slots = 60s) feeding qps / rejects-per-sec
   and rolling latency quantiles for the !s scrape and `rpslyzer top` *)
let g_active = Obs.Gauge.make "serve.sessions_active"
let g_generation = Obs.Gauge.make "serve.generation"
let g_serial = Obs.Gauge.make "serve.serial"
let g_queue = Obs.Gauge.make "serve.queue_depth"
let w_query = Obs.Window.make "serve.query_window"
let w_rejects = Obs.Window.make "serve.reject_window"

let response_class = function
  | Irrd_query.Data _ -> "data"
  | Irrd_query.No_data -> "no_data"
  | Irrd_query.Not_found_key -> "not_found"
  | Irrd_query.Error_resp _ -> "error"
  | Irrd_query.Quit -> "quit"

type config = {
  workers : int;
  max_inflight : int;
  query_timeout_ms : int;
  read_timeout_ms : int;
  max_line_bytes : int;
}

let default_config =
  { workers = 2;
    max_inflight = 64;
    query_timeout_ms = 1_000;
    read_timeout_ms = 10_000;
    max_line_bytes = 1_024 }

(* ---------------- shared dispatch ---------------- *)

let dispatch ?(config = default_config) ?stats ?sink db line =
  Obs.Counter.incr c_queries;
  let finish ?rejected ~latency_ns resp =
    (match sink with
     | Some f -> f ~query:line ~response:resp ~latency_ns ~rejected
     | None -> ());
    resp
  in
  let reject reason =
    Obs.Counter.incr c_rejected;
    Obs.Window.observe w_rejects 1.0;
    finish ~rejected:reason ~latency_ns:0 (Irrd_query.Error_resp reason)
  in
  if String.length line > config.max_line_bytes then reject "query too long"
  else if String.contains line '\000' then reject "NUL byte in query"
  else if String.contains line '\r' || String.contains line '\n' then
    reject "control byte in query"
  else begin
    let t0 = Obs.now_ns () in
    let resp =
      Obs.Span.with_ "serve.query" (fun () ->
          (* !s is read-only and rides the normal guarded dispatch path,
             so it is counted, timed, and windowed like any query *)
          match stats with
          | Some scrape when line = "!s" -> Irrd_query.Data (scrape ())
          | _ -> Irrd_query.answer db line)
    in
    let dt = Obs.now_ns () - t0 in
    Obs.Histogram.observe h_query (float_of_int dt);
    Obs.Window.observe w_query (float_of_int dt);
    if
      config.query_timeout_ms > 0
      && dt > config.query_timeout_ms * 1_000_000
      && resp <> Irrd_query.Quit
    then begin
      Obs.Counter.incr c_timeouts;
      finish ~latency_ns:dt (Irrd_query.Error_resp "query deadline exceeded")
    end
    else finish ~latency_ns:dt resp
  end

let session_lines db lines =
  let buf = Buffer.create 256 in
  let rec go = function
    | [] -> ()
    | line :: rest -> (
      match dispatch db line with
      | Irrd_query.Quit -> ()
      | resp ->
        Buffer.add_string buf (Irrd_query.render resp);
        go rest)
  in
  go lines;
  Buffer.contents buf

(* ---------------- sockets ---------------- *)

type address = Port of int | Socket of string

type t = {
  config : config;
  store : Generation.store;
  listen_fd : Unix.file_descr;
  bound_port : int;
  sock_path : string option;
  queue : Unix.file_descr Bqueue.t;
  stopping : bool Atomic.t;
  access_log : Access_log.t option;
  mutable journal : Nrtm.op list list;  (* guarded by [jlock] *)
  jlock : Mutex.t;
  mutable accept_d : unit Domain.t option;
  mutable worker_ds : unit Domain.t list;
}

let send fd s =
  let n = String.length s in
  let rec go off =
    if off >= n then true
    else
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> false
  in
  go 0

(* Buffered per-session line reader with a wall-clock read deadline. The
   select slice is capped so a stopping server never waits a whole
   deadline for a silent client. *)
type conn = { fd : Unix.file_descr; mutable pending : string }

let recv_line ~stopping ~(config : config) conn =
  let deadline =
    Unix.gettimeofday () +. (float_of_int config.read_timeout_ms /. 1000.)
  in
  let rec go () =
    match String.index_opt conn.pending '\n' with
    | Some i ->
      let line = String.sub conn.pending 0 i in
      conn.pending <-
        String.sub conn.pending (i + 1) (String.length conn.pending - i - 1);
      `Line line
    | None ->
      if String.length conn.pending > config.max_line_bytes then `Too_long
      else if Atomic.get stopping then `Closed
      else begin
        let now = Unix.gettimeofday () in
        if now >= deadline then `Timeout
        else
          match Unix.select [ conn.fd ] [] [] (Float.min 0.25 (deadline -. now)) with
          | [], _, _ -> go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | _ -> (
            let chunk = Bytes.create 4096 in
            match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
            | 0 -> `Eof
            | n ->
              conn.pending <- conn.pending ^ Bytes.sub_string chunk 0 n;
              go ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
            | exception Unix.Unix_error _ -> `Eof)
      end
  in
  go ()

(* ---------------- sessions ---------------- *)

let next_batch t =
  Mutex.lock t.jlock;
  let batch =
    match t.journal with
    | [] -> None
    | batch :: rest ->
      t.journal <- rest;
      Some batch
  in
  Mutex.unlock t.jlock;
  batch

(* The !s scrape body: refresh the point-in-time gauges and the
   generation fingerprint (cached per generation — the expensive IR
   export runs once per swap, not per scrape), then render the full
   Prometheus exposition. Runs on the shared dispatch path, so it is
   safe under concurrent generation swaps: everything it reads is an
   atomic, a gauge, or the mutex-guarded fingerprint cache. *)
let server_stats t () =
  Obs.Gauge.set g_generation (Generation.generation t.store);
  Obs.Gauge.set g_serial (Generation.last_serial t.store);
  Obs.Gauge.set g_queue (Bqueue.length t.queue);
  Obs.Meta.set "generation_fingerprint"
    (Json.String (Generation.cached_fingerprint t.store));
  Obs.Meta.set "stopping" (Json.Bool (Atomic.get t.stopping));
  Obs.to_prometheus (Obs.Registry.snapshot ())

let peer_name fd =
  match Unix.getpeername fd with
  | Unix.ADDR_INET (addr, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) port
  | Unix.ADDR_UNIX _ | (exception Unix.Unix_error _) -> "unix"

let session t fd =
  Obs.Counter.incr c_sessions;
  Obs.Gauge.incr g_active;
  Fun.protect
    ~finally:(fun () ->
      Obs.Gauge.decr g_active;
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Obs.Span.with_ "serve.session" @@ fun () ->
  let conn = { fd; pending = "" } in
  let peer = peer_name fd in
  let access ~query ~response ~latency_ns ~rejected =
    match t.access_log with
    | None -> ()
    | Some al ->
      Access_log.log al ~peer ~query ~verdict:(response_class response)
        ?rejected ~latency_ns ~generation:(Generation.generation t.store)
        ~serial:(Generation.last_serial t.store) ()
  in
  let rec loop () =
    match recv_line ~stopping:t.stopping ~config:t.config conn with
    | `Closed -> ()
    | `Eof ->
      (* disconnect mid-command: the partial line is a truncated query *)
      if conn.pending <> "" then Obs.Counter.incr c_rejected
    | `Timeout ->
      if conn.pending <> "" then Obs.Counter.incr c_sessions_dropped
    | `Too_long ->
      Obs.Counter.incr c_rejected;
      access ~query:"" ~response:(Irrd_query.Error_resp "query too long")
        ~latency_ns:0 ~rejected:(Some "query too long");
      ignore (send fd "F query too long\n")
    | `Line line ->
      if line = "!u" then begin
        let t0 = Obs.now_ns () in
        let resp =
          match next_batch t with
          | None -> Irrd_query.No_data
          | Some batch ->
            let gen = Generation.apply t.store batch in
            Irrd_query.Data
              (Printf.sprintf "generation %d: applied %d ops" gen
                 (List.length batch))
        in
        access ~query:line ~response:resp ~latency_ns:(Obs.now_ns () - t0)
          ~rejected:None;
        if send fd (Irrd_query.render resp) then loop ()
      end
      else
        match
          dispatch ~config:t.config ~stats:(fun () -> server_stats t ())
            ~sink:access
            (Generation.current t.store) line
        with
        | Irrd_query.Quit -> ()
        | resp -> if send fd (Irrd_query.render resp) then loop ()
  in
  loop ()

let worker t () =
  (* one span per worker: its own lane in the Chrome trace export *)
  Obs.Span.with_ "serve.worker" @@ fun () ->
  let rec loop () =
    match Bqueue.pop t.queue with
    | None -> ()
    | Some fd ->
      (try session t fd
       with _ -> ( try Unix.close fd with Unix.Unix_error _ -> ()));
      loop ()
  in
  loop ()

let accept_loop t () =
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> Atomic.set t.stopping true
      | _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error _ -> Atomic.set t.stopping true
        | fd, _ ->
          if Bqueue.length t.queue >= t.config.max_inflight then begin
            Obs.Counter.incr c_sessions_rejected;
            ignore (send fd "F server busy\n");
            (try Unix.close fd with Unix.Unix_error _ -> ())
          end
          else
            (* the accept domain is the only producer, so the length
               check above keeps this push from ever blocking *)
            Bqueue.push t.queue fd));
      loop ()
    end
  in
  loop ()

(* ---------------- lifecycle ---------------- *)

let start ?(config = default_config) ?(journal = []) ?access_log store address =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd, bound_port, sock_path =
    match address with
    | Port p ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, p));
      Unix.listen fd 64;
      let actual =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p') -> p'
        | _ -> p
      in
      (fd, actual, None)
    | Socket path ->
      if Sys.file_exists path then
        (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, 0, Some path)
  in
  let t =
    { config = { config with workers = max 1 config.workers };
      store;
      listen_fd;
      bound_port;
      sock_path;
      queue = Bqueue.create ~capacity:(max 1 config.max_inflight);
      stopping = Atomic.make false;
      access_log;
      journal;
      jlock = Mutex.create ();
      accept_d = None;
      worker_ds = [] }
  in
  t.worker_ds <- List.init t.config.workers (fun _ -> Domain.spawn (worker t));
  t.accept_d <- Some (Domain.spawn (accept_loop t));
  t

let port t = t.bound_port

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (match t.accept_d with Some d -> Domain.join d | None -> ());
    t.accept_d <- None;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Bqueue.close t.queue;
    List.iter Domain.join t.worker_ds;
    t.worker_ds <- [];
    match t.sock_path with
    | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | None -> ()
  end

(* ---------------- loopback client ---------------- *)

let connect address =
  match address with
  | Port p ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, p))
     with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
    fd
  | Socket path ->
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
    fd

let drain fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.select [ fd ] [] [] 30.0 with
    | [], _, _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | _ -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> ())
  in
  go ();
  Buffer.contents buf

let client address queries =
  let fd = connect address in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let queries =
    if List.exists (fun q -> String.trim q = "!q") queries then queries
    else queries @ [ "!q" ]
  in
  List.iter (fun q -> ignore (send fd (q ^ "\n"))) queries;
  drain fd

let client_raw address ?(stall_s = 0.) bytes =
  let fd = connect address in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  ignore (send fd bytes);
  if stall_s > 0. then Unix.sleepf stall_s;
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  drain fd
