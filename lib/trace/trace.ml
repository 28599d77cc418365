module Json = Rz_json.Json
module Obs = Rz_obs.Obs

(* ------------------------------------------------------------------ *)
(* Sampling policy                                                     *)
(* ------------------------------------------------------------------ *)

type sampling =
  | Off
  | All
  | Per_status of int  (* per-verdict-class record quota *)

let sampling_to_string = function
  | Off -> "off"
  | All -> "all"
  | Per_status q -> Printf.sprintf "quota:%d" q

(* "Keep the first [q] of each class": the ledger counts an admission
   when it grants it, so a caller that builds its record only after a
   [true] never pays for the drops. *)
module Quota = struct
  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let admit sampling (t : t) cls =
    match sampling with
    | Off -> false
    | All -> true
    | Per_status q ->
      let n = Option.value ~default:0 (Hashtbl.find_opt t cls) in
      n < q && (Hashtbl.replace t cls (n + 1); true)
end

let sampling_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" -> Some Off
  | "all" -> Some All
  | s when String.length s > 6 && String.sub s 0 6 = "quota:" ->
    (match Rz_util.Strings.decimal (String.sub s 6 (String.length s - 6)) with
     | Some q when q > 0 -> Some (Per_status q)
     | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Decision records                                                    *)
(* ------------------------------------------------------------------ *)

(* One hop evaluation's provenance. Plain strings/ints so rz_verify can
   depend on this module (and not the other way around); every field is
   bounded — [rule] is clipped by the producer, [as_sets] capped. *)
type record = {
  seq : int;               (* global emission order *)
  t_ns : int;              (* monotonic clock at emission *)
  domain : int;            (* emitting domain id *)
  direction : string;      (* "import" | "export" *)
  subject : int;           (* aut-num whose policy was consulted *)
  remote : int;            (* PeerAS binding *)
  prefix : string;
  origin : int;
  path_len : int;
  verdict : string;        (* Status.to_string *)
  verdict_class : string;  (* Status.class_label *)
  rule : string option;    (* rule consulted (clipped rendering) *)
  filter_kind : string option;
  as_sets : string list;   (* set names walked during evaluation *)
  memo : string;           (* "computed" | "hit" | "miss" | "bypass" *)
  trigger : string option; (* relaxation / safelist / abstain trigger *)
  items : string list;     (* diagnostic items of the hop report *)
}

let capacity = 4096

(* ------------------------------------------------------------------ *)
(* The ring buffer                                                     *)
(* ------------------------------------------------------------------ *)

(* One ring and its quota ledger, both guarded by [ring_mutex]: hop
   records come from the one domain that verifies, so the lock is
   uncontended there, and it keeps any other emitter correct.
   [configure] swaps in a fresh ring, which is how reset takes
   effect. *)
type ring = {
  buf : record option array;
  mutable written : int;  (* records accepted; the next record's seq *)
  quota : Quota.t;  (* per verdict_class admissions under [Per_status] *)
}

let new_ring () =
  { buf = Array.make capacity None; written = 0; quota = Quota.create () }

let on = Atomic.make false
let policy = Atomic.make Off

let c_records = Obs.Counter.make "trace.records_total"
let c_dropped = Obs.Counter.make "trace.dropped_total"

let ring_mutex = Mutex.create ()
let ring = ref (new_ring ())

let with_ring f = Mutex.protect ring_mutex (fun () -> f !ring)

let configure sampling =
  Mutex.protect ring_mutex (fun () -> ring := new_ring ());
  Atomic.set policy sampling;
  Atomic.set on (sampling <> Off)

let reset () = configure (Atomic.get policy)
let enabled () = Atomic.get on
let sampling () = Atomic.get policy

(* The sampling decision, separated from [emit] so the producer can skip
   building the record (prefix rendering, item strings) when it will be
   dropped anyway. The run keeps its first [q] records of every verdict
   class. *)
let should_sample verdict_class =
  Atomic.get on
  && with_ring (fun r -> Quota.admit (Atomic.get policy) r.quota verdict_class)

let emit r0 =
  if Atomic.get on then
    with_ring (fun ring ->
        let seq = ring.written in
        (* past capacity, the oldest record is overwritten *)
        if seq >= capacity then Obs.Counter.incr c_dropped;
        ring.buf.(seq mod capacity) <- Some { r0 with seq };
        ring.written <- seq + 1;
        Obs.Counter.incr c_records)

let records () =
  with_ring (fun r -> Array.to_list r.buf)
  |> List.filter_map Fun.id
  |> List.sort (fun a b -> compare a.seq b.seq)

let kept () = with_ring (fun r -> min r.written capacity)
let dropped () = with_ring (fun r -> max 0 (r.written - capacity))

(* Force [sampling'] for the duration of [f] (fresh ring), restoring the
   previous policy — and discarding the temporary ring — on the way out.
   Collect {!records} inside [f]. *)
let with_sampling sampling' f =
  let prev_policy = Atomic.get policy in
  configure sampling';
  Fun.protect f ~finally:(fun () -> configure prev_policy)

let opt_string = function None -> Json.Null | Some s -> Json.String s

let record_to_json r =
  Json.Obj
    [ ("seq", Json.Int r.seq);
      ("domain", Json.Int r.domain);
      ("direction", Json.String r.direction);
      ("subject", Json.Int r.subject);
      ("remote", Json.Int r.remote);
      ("prefix", Json.String r.prefix);
      ("origin", Json.Int r.origin);
      ("path_len", Json.Int r.path_len);
      ("verdict", Json.String r.verdict);
      ("class", Json.String r.verdict_class);
      ("rule", opt_string r.rule);
      ("filter_kind", opt_string r.filter_kind);
      ("as_sets", Json.List (List.map (fun s -> Json.String s) r.as_sets));
      ("memo", Json.String r.memo);
      ("trigger", opt_string r.trigger);
      ("items", Json.List (List.map (fun s -> Json.String s) r.items)) ]

let record_to_lines r =
  let line k v = Printf.sprintf "%-12s %s" k v in
  List.concat
    [ [ line "verdict" r.verdict;
        line "subject" (Printf.sprintf "AS%d (%s to AS%d)" r.subject r.direction r.remote) ];
      (match r.rule with Some s -> [ line "rule" s ] | None -> []);
      (match r.filter_kind with Some s -> [ line "filter" s ] | None -> []);
      (match r.as_sets with
       | [] -> []
       | sets -> [ line "sets" (String.concat ", " sets) ]);
      (match r.trigger with Some s -> [ line "trigger" s ] | None -> []);
      [ line "memo" r.memo ] ]

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)
(* ------------------------------------------------------------------ *)

(* Collects every Obs.Span exit (via {!Obs.Span.set_sink}) into
   per-domain event buffers and renders the Chrome trace-event JSON
   array format: one complete ("X") event per span, one instant ("i")
   event per sampled hop record, with pid 1 and tid = domain id so each
   domain gets its own lane in chrome://tracing / Perfetto. *)
module Chrome = struct
  type event = { e_name : string; e_dom : int; e_start_ns : int; e_dur_ns : int }

  let max_events_per_domain = 65536

  type lane = {
    l_gen : int;
    l_dom : int;
    mutable events : event list;  (* newest first *)
    mutable n : int;
    mutable lost : int;
  }

  let gen = Atomic.make 0
  let lanes_mutex = Mutex.create ()
  let lanes : lane list ref = ref []

  let with_llock f =
    Mutex.lock lanes_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock lanes_mutex) f

  let lane_key : lane option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

  let my_lane () =
    let cell = Domain.DLS.get lane_key in
    let g = Atomic.get gen in
    match !cell with
    | Some l when l.l_gen = g -> l
    | _ ->
      let l = { l_gen = g; l_dom = (Domain.self () :> int); events = []; n = 0; lost = 0 } in
      with_llock (fun () -> lanes := l :: !lanes);
      cell := Some l;
      l

  let sink name ~start_ns ~dur_ns =
    let l = my_lane () in
    if l.n < max_events_per_domain then begin
      l.events <- { e_name = name; e_dom = l.l_dom; e_start_ns = start_ns; e_dur_ns = dur_ns } :: l.events;
      l.n <- l.n + 1
    end
    else l.lost <- l.lost + 1

  let reset () =
    with_llock (fun () -> lanes := []);
    Atomic.incr gen

  let install () =
    reset ();
    Obs.Span.set_sink (Some sink)

  let uninstall () = Obs.Span.set_sink None

  let span_events () =
    let ls = with_llock (fun () -> !lanes) in
    List.concat_map (fun l -> List.rev l.events) ls

  let lost () =
    let ls = with_llock (fun () -> !lanes) in
    List.fold_left (fun acc l -> acc + l.lost) 0 ls

  (* ts/dur are microseconds in the trace-event format; both rebased to
     the earliest event so the viewer timeline starts near zero. *)
  let export ?(records = []) () =
    let events = span_events () in
    let t_min =
      List.fold_left
        (fun acc (e : event) -> min acc e.e_start_ns)
        (List.fold_left (fun acc (r : record) -> min acc r.t_ns) max_int records)
        events
    in
    let t_min = if t_min = max_int then 0 else t_min in
    let us ns = Json.Float (float_of_int (ns - t_min) /. 1e3) in
    let doms =
      List.sort_uniq compare
        (List.map (fun (e : event) -> e.e_dom) events
         @ List.map (fun (r : record) -> r.domain) records)
    in
    let meta_events =
      Json.Obj
        [ ("name", Json.String "process_name"); ("ph", Json.String "M");
          ("pid", Json.Int 1); ("tid", Json.Int 0);
          ("args", Json.Obj [ ("name", Json.String "rpslyzer") ]) ]
      :: List.map
           (fun d ->
             Json.Obj
               [ ("name", Json.String "thread_name"); ("ph", Json.String "M");
                 ("pid", Json.Int 1); ("tid", Json.Int d);
                 ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "domain %d" d)) ]) ])
           doms
    in
    let span_evs =
      List.map
        (fun (e : event) ->
          Json.Obj
            [ ("name", Json.String e.e_name); ("cat", Json.String "span");
              ("ph", Json.String "X"); ("pid", Json.Int 1); ("tid", Json.Int e.e_dom);
              ("ts", us e.e_start_ns);
              ("dur", Json.Float (float_of_int e.e_dur_ns /. 1e3)) ])
        events
    in
    let hop_evs =
      List.map
        (fun (r : record) ->
          Json.Obj
            [ ("name", Json.String ("hop " ^ r.verdict_class));
              ("cat", Json.String "hop"); ("ph", Json.String "i");
              ("s", Json.String "t"); ("pid", Json.Int 1); ("tid", Json.Int r.domain);
              ("ts", us r.t_ns);
              ("args", record_to_json r) ])
        records
    in
    Json.List (meta_events @ span_evs @ hop_evs)
end

(* ------------------------------------------------------------------ *)
(* Periodic metrics streaming                                          *)
(* ------------------------------------------------------------------ *)

(* A sampler domain wakes every [interval_s] seconds and appends one
   JSONL line — elapsed wall-clock plus the full Obs registry snapshot —
   to [path], turning a multi-hour run's counters into a time series.
   [stop] joins the sampler and writes one final snapshot line, so even
   runs shorter than the interval produce a record. *)
module Metrics_stream = struct
  type shared = {
    oc : out_channel;
    t0 : float;
    stop_flag : bool Atomic.t;
    out_mutex : Mutex.t;
  }

  type t = { shared : shared; sampler : unit Domain.t }

  let write_line s =
    let line =
      Json.Obj
        [ ("elapsed_s", Json.Float (Unix.gettimeofday () -. s.t0));
          ("metrics", Obs.Registry.to_json (Obs.Registry.snapshot ())) ]
    in
    Mutex.lock s.out_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock s.out_mutex)
      (fun () ->
        output_string s.oc (Json.to_string line);
        output_char s.oc '\n';
        flush s.oc)

  let start ?(interval_s = 5.0) path =
    let interval_s = Float.max 0.01 interval_s in
    let shared =
      { oc = open_out path; t0 = Unix.gettimeofday ();
        stop_flag = Atomic.make false; out_mutex = Mutex.create () }
    in
    let run () =
      (* sleep in short slices so [stop] is honored promptly *)
      let slice = 0.02 in
      let rec loop slept =
        if not (Atomic.get shared.stop_flag) then
          if slept >= interval_s then begin
            write_line shared;
            loop 0.0
          end
          else begin
            Unix.sleepf (Float.min slice (interval_s -. slept));
            loop (slept +. slice)
          end
      in
      loop 0.0
    in
    { shared; sampler = Domain.spawn run }

  let stop t =
    Atomic.set t.shared.stop_flag true;
    (try Domain.join t.sampler with _ -> ());
    write_line t.shared;  (* final snapshot: every run yields >= 1 line *)
    close_out t.shared.oc
end
