(* Structured per-query access log. See access_log.mli. *)

module Obs = Rz_obs.Obs
module Json = Rz_json.Json
module Trace = Rz_trace.Trace

let c_dropped = Obs.Counter.make "obs.accesslog_dropped"

(* in-flight records; [log] drops beyond this *)
let capacity = 1024

type t = {
  queue : string Bqueue.t;
  sampling : Trace.sampling;
  (* per-response-class quota ledger under [Per_status]; the mutex also
     serializes [close] against late [log] calls racing the queue close *)
  quota : Trace.Quota.t;
  lock : Mutex.t;
  mutable closed : bool;
  writer : unit Domain.t;
}

let create ?(sampling = Trace.All) path =
  (* [log] checks the length and pushes under [lock], dropping at
     [capacity], so a push never blocks on a full queue. *)
  let queue = Bqueue.create ~capacity in
  (* open in the caller so a bad path fails [create], not the domain *)
  let oc = open_out path in
  let writer =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
        let rec loop () =
          match Bqueue.pop queue with
          | None -> ()
          | Some line ->
            output_string oc line;
            output_char oc '\n';
            (* batch-flush: only pay the flush when the queue drains *)
            if Bqueue.length queue = 0 then flush oc;
            loop ()
        in
        loop ())
  in
  { queue; sampling; quota = Trace.Quota.create ();
    lock = Mutex.create (); closed = false; writer }

let should_keep t verdict =
  Mutex.lock t.lock;
  let keep = Trace.Quota.admit t.sampling t.quota verdict in
  Mutex.unlock t.lock;
  keep

let log t ~peer ~query ~verdict ?rejected ~latency_ns ~generation ~serial () =
  if should_keep t verdict then begin
    let record =
      Json.Obj
        ([ ("ts", Json.Float (Unix.gettimeofday ()));
           ("peer", Json.String peer);
           ("query", Json.String query);
           ("class", Json.String verdict) ]
        @ (match rejected with
          | Some reason -> [ ("rejected", Json.String reason) ]
          | None -> [])
        @ [ ("latency_ns", Json.Int latency_ns);
            ("generation", Json.Int generation);
            ("serial", Json.Int serial) ])
    in
    let line = Json.to_string record in
    Mutex.lock t.lock;
    let dropped = t.closed || Bqueue.length t.queue >= capacity in
    if not dropped then Bqueue.push t.queue line;
    Mutex.unlock t.lock;
    if dropped then Obs.Counter.incr c_dropped
  end

let close t =
  Mutex.lock t.lock;
  let was_closed = t.closed in
  t.closed <- true;
  if not was_closed then Bqueue.close t.queue;
  Mutex.unlock t.lock;
  if not was_closed then Domain.join t.writer
