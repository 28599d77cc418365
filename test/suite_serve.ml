(* Tests for the persistent IRRd query service (Rz_serve): protocol
   conformance of the shared dispatch path, admission guards at both the
   in-process and the socket layer (hostile-query corpus), live
   copy-on-write generation swaps raced by concurrent sessions, and the
   NRTM incremental==batch differential. *)

module Serve = Rz_serve.Serve
module Generation = Rz_serve.Generation
module Q = Rz_irr.Irrd_query
module Db = Rz_irr.Db
module Nrtm = Rz_synthirr.Nrtm
module Obs = Rz_obs.Obs
module Json = Rz_json.Json

(* same registry as suite_irrd: a cone with a sub-set, a route-set, and
   covering/covered route pairs, so every response shape is reachable *)
let fixture =
  "aut-num: AS65001\n\
   as-name: EXAMPLE\n\
   import: from AS65002 accept AS-CONE\n\
   export: to AS65002 announce AS65001\n\
   mnt-by: MNT-EX\n\
   \n\
   as-set: AS-CONE\n\
   members: AS65001, AS-SUB\n\
   \n\
   as-set: AS-SUB\n\
   members: AS65003\n\
   \n\
   route-set: RS-NETS\n\
   members: 192.0.2.0/24^+, AS65003\n\
   \n\
   route: 192.0.2.0/24\norigin: AS65001\n\
   \n\
   route: 198.51.100.0/24\norigin: AS65001\n\
   \n\
   route: 198.51.100.0/25\norigin: AS65003\n\
   \n\
   route6: 2001:db8::/32\norigin: AS65001\n"

let db = lazy (Db.of_dumps [ ("TEST", fixture) ])

let counter name = Obs.Counter.get (Obs.Counter.make name)

(* fixtures are declared as test deps, so they sit next to the built
   executable; anchor there so dune exec from the project root works too *)
let fixture_dir =
  lazy
    (let candidates =
       [ Filename.concat (Filename.dirname Sys.executable_name) "fixtures";
         "fixtures"; Filename.concat "test" "fixtures" ]
     in
     match List.find_opt Sys.file_exists candidates with
     | Some dir -> dir
     | None -> "fixtures")

let slurp file =
  let ic = open_in_bin (Filename.concat (Lazy.force fixture_dir) file) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* ---- protocol conformance: every Irrd_query response shape through
   the shared dispatch path ---- *)

let shape = function
  | Q.Data _ -> "data"
  | Q.No_data -> "no-data"
  | Q.Not_found_key -> "not-found"
  | Q.Error_resp _ -> "error"
  | Q.Quit -> "quit"

let conformance_pins =
  [ ("!gAS65001", `Payload "192.0.2.0/24 198.51.100.0/24");
    ("!6AS65001", `Payload "2001:db8::/32");
    ("!iAS-CONE", `Payload "AS65001 AS-SUB");
    ("!iAS-CONE,1", `Payload "AS65001 AS65003");
    ("!aAS-CONE", `Payload "192.0.2.0/24 198.51.100.0/24");
    ("!r198.51.100.0/25,o", `Payload "AS65003");
    ("!gAS64999", `Shape "not-found");
    ("!iAS-NOWHERE", `Shape "not-found");
    ("WHAT-IS-THIS", `Shape "not-found");
    ("", `Shape "no-data");
    ("   \t ", `Shape "no-data");
    ("!nbgpq4", `Shape "no-data");
    ("!q", `Shape "quit");
    ("!zwhatever", `Shape "error");
    ("!maut-num", `Shape "error") ]

let test_dispatch_conformance () =
  let db = Lazy.force db in
  List.iter
    (fun (query, expect) ->
      match (Serve.dispatch db query, expect) with
      | Q.Data payload, `Payload want ->
        Alcotest.(check string) query want payload
      | resp, `Payload want ->
        Alcotest.failf "%s: want data %S, got %s" query want (shape resp)
      | resp, `Shape want -> Alcotest.(check string) query want (shape resp))
    conformance_pins

let test_dispatch_matches_answer () =
  (* for clean in-protocol queries the service path adds nothing: it must
     agree with Irrd_query.answer, and session_lines with session *)
  let db = Lazy.force db in
  List.iter
    (fun (query, _) ->
      Alcotest.(check string) query
        (Q.render (Q.answer db query))
        (Q.render (Serve.dispatch db query)))
    conformance_pins;
  let lines = [ "!nbgpq4"; "!gAS65001"; "!iAS-CONE,1"; "!q"; "!gAS65001" ] in
  Alcotest.(check string) "session_lines == session" (Q.session db lines)
    (Serve.session_lines db lines)

let test_dispatch_guards () =
  Obs.enable ();
  let db = Lazy.force db in
  let expect_rejected label query =
    let before = counter "serve.queries_rejected" in
    (match Serve.dispatch db query with
    | Q.Error_resp _ -> ()
    | resp -> Alcotest.failf "%s: want error, got %s" label (shape resp));
    Alcotest.(check int) (label ^ " counted") (before + 1)
      (counter "serve.queries_rejected")
  in
  expect_rejected "oversized line" ("!i" ^ String.make 2_048 'A');
  expect_rejected "NUL byte" "!gAS1\000AS2";
  expect_rejected "CR injection" "!gAS65001\rF fake";
  expect_rejected "LF injection" "!gAS65001\nA5\nowned";
  (* the boundary itself is admissible *)
  let before = counter "serve.queries_rejected" in
  ignore (Serve.dispatch db (String.make 1_024 'x'));
  Alcotest.(check int) "max_line_bytes admissible" before
    (counter "serve.queries_rejected");
  let total_before = counter "serve.queries_total" in
  ignore (Serve.session_lines db [ "!gAS65001"; "!iAS-CONE" ]);
  Alcotest.(check int) "every query counted" (total_before + 2)
    (counter "serve.queries_total")

(* ---- the real server: socket round-trips ---- *)

let tmp_socket () =
  let path = Filename.temp_file "rz_serve" ".sock" in
  Sys.remove path;
  path

let with_server ?config ?journal ?access_log store f =
  let path = tmp_socket () in
  let t = Serve.start ?config ?journal ?access_log store (Serve.Socket path) in
  Fun.protect ~finally:(fun () -> Serve.stop t) @@ fun () ->
  f (Serve.Socket path)

let fixture_store = lazy (Generation.init (Db.ir (Lazy.force db)))

let test_server_roundtrip_unix () =
  let store = Lazy.force fixture_store in
  with_server store @@ fun addr ->
  Alcotest.(check string) "framed reply"
    (Q.render (Q.Data "AS65001 AS-SUB") ^ Q.render Q.Not_found_key)
    (Serve.client addr [ "!iAS-CONE"; "!gAS64999" ])

let test_server_roundtrip_tcp_ephemeral () =
  let store = Lazy.force fixture_store in
  let t = Serve.start store (Serve.Port 0) in
  Fun.protect ~finally:(fun () -> Serve.stop t) @@ fun () ->
  Alcotest.(check bool) "ephemeral port bound" true (Serve.port t > 0);
  Alcotest.(check string) "reply over tcp"
    (Q.render (Q.Data "AS65001 AS65003"))
    (Serve.client (Serve.Port (Serve.port t)) [ "!iAS-CONE,1" ]);
  Serve.stop t;
  (* stop is idempotent *)
  Serve.stop t

let test_server_journal_u () =
  Obs.enable ();
  let ops = Nrtm.generate ~seed:3 ~n:6 [ ("TEST", fixture) ] in
  Alcotest.(check bool) "journal non-empty" true (ops <> []);
  let k = max 1 (List.length ops / 2) in
  let b1 = List.filteri (fun i _ -> i < k) ops in
  let b2 = List.filteri (fun i _ -> i >= k) ops in
  let store = Generation.init (Db.ir (Lazy.force db)) in
  with_server ~journal:[ b1; b2 ] store @@ fun addr ->
  let has needle reply =
    Rz_util.Strings.split_on_string ~sep:needle reply |> List.length > 1
  in
  Alcotest.(check bool) "first !u swaps to generation 2" true
    (has "generation 2: applied" (Serve.client addr [ "!u" ]));
  Alcotest.(check bool) "second !u swaps to generation 3" true
    (has "generation 3: applied" (Serve.client addr [ "!u" ]));
  Alcotest.(check string) "drained journal -> C" "C\n"
    (Serve.client addr [ "!u" ]);
  Alcotest.(check int) "store generation" 3 (Generation.generation store);
  Alcotest.(check bool) "serial advanced" true (Generation.last_serial store > 0)

(* ---- hostile corpus through the real admission path ---- *)

let await label pred =
  let rec go tries =
    if pred () then ()
    else if tries = 0 then Alcotest.failf "%s: never observed" label
    else begin
      Unix.sleepf 0.02;
      go (tries - 1)
    end
  in
  go 150

let test_hostile_truncated () =
  Obs.enable ();
  let store = Lazy.force fixture_store in
  with_server store @@ fun addr ->
  let before = counter "serve.queries_rejected" in
  let reply = Serve.client_raw addr (slurp "query_truncated.txt") in
  Alcotest.(check string) "truncated command gets no reply" "" reply;
  await "truncated query rejected" (fun () ->
      counter "serve.queries_rejected" > before);
  (* the server is still healthy *)
  Alcotest.(check string) "next session answers"
    (Q.render (Q.Data "AS65001 AS-SUB"))
    (Serve.client addr [ "!iAS-CONE" ])

let test_hostile_pipelined_garbage () =
  Obs.enable ();
  let store = Lazy.force fixture_store in
  with_server store @@ fun addr ->
  let before = counter "serve.queries_rejected" in
  let reply = Serve.client_raw addr (slurp "query_pipelined_garbage.txt") in
  let has needle =
    Rz_util.Strings.split_on_string ~sep:needle reply |> List.length > 1
  in
  Alcotest.(check bool) "garbage answered with F" true (has "F ");
  Alcotest.(check bool) "NUL line rejected in-protocol" true
    (has "F NUL byte in query");
  Alcotest.(check bool) "pipelined valid query still answered" true
    (has "AS65001 AS-SUB");
  await "rejections counted" (fun () ->
      counter "serve.queries_rejected" >= before + 1)

let test_hostile_slowloris () =
  Obs.enable ();
  let store = Lazy.force fixture_store in
  let config = { Serve.default_config with read_timeout_ms = 250 } in
  with_server ~config store @@ fun addr ->
  let before = counter "serve.sessions_dropped" in
  let reply =
    Serve.client_raw addr ~stall_s:0.8 (slurp "query_slowloris.txt")
  in
  Alcotest.(check string) "stalled partial line gets no reply" "" reply;
  await "slowloris session dropped" (fun () ->
      counter "serve.sessions_dropped" > before);
  Alcotest.(check string) "server survives the drop"
    (Q.render (Q.Data "AS65001 AS65003"))
    (Serve.client addr [ "!iAS-CONE,1" ])

let test_admission_busy () =
  Obs.enable ();
  let store = Lazy.force fixture_store in
  let config =
    { Serve.default_config with
      workers = 1;
      max_inflight = 1;
      read_timeout_ms = 3_000 }
  in
  let path = tmp_socket () in
  let t = Serve.start ~config store (Serve.Socket path) in
  Fun.protect ~finally:(fun () -> Serve.stop t) @@ fun () ->
  let connect () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  (* occupy the single worker with a half-sent command, then fill the
     one queue slot the same way; the third connection must be refused
     at accept time *)
  let fd1 = connect () in
  ignore (Unix.write_substring fd1 "!gAS" 0 4);
  Unix.sleepf 0.4;
  let fd2 = connect () in
  ignore (Unix.write_substring fd2 "!gAS" 0 4);
  Unix.sleepf 0.4;
  let before = counter "serve.sessions_rejected" in
  let reply = Serve.client_raw (Serve.Socket path) "" in
  Alcotest.(check string) "third connection refused" "F server busy\n" reply;
  Alcotest.(check int) "refusal counted" (before + 1)
    (counter "serve.sessions_rejected");
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ fd1; fd2 ]

(* ---- live generations: soak + differential ---- *)

let small_world =
  lazy
    (let topo_params =
       { Rz_topology.Gen.default_params with
         seed = 13;
         n_tier1 = 3;
         n_mid = 12;
         n_stub = 40 }
     in
     Rpslyzer.Pipeline.build_synthetic ~topo_params ())

(* base database rebuilt sequentially from the dump texts, so both sides
   of every differential share one lowering path *)
let base_db =
  lazy (Db.of_dumps (Lazy.force small_world).Rpslyzer.Pipeline.dumps)

(* Split a journal into at most [parts] consecutive batches of equal
   size (the last may be short), dropping empty ones. *)
let chunk parts ops =
  let k = max 1 ((List.length ops + parts - 1) / parts) in
  List.init parts (fun b -> List.filteri (fun i _ -> i / k = b) ops)
  |> List.filter (fun b -> b <> [])

(* Eight concurrent sessions race three live generation swaps; every
   transcript+fingerprint pair a reader observes must equal one of the
   precomputed per-generation pairs — a torn read (answers from one
   generation, content hash from another, or a half-swapped database)
   matches none of them. *)
let qcheck_soak =
  QCheck.Test.make ~count:2 ~name:"soak: 8 sessions across 3 live swaps, no torn reads"
    QCheck.(make ~print:Print.int Gen.(int_bound 9_999))
    (fun seed ->
      let world = Lazy.force small_world in
      let base = Lazy.force base_db in
      let ops = Nrtm.generate ~seed ~n:24 world.Rpslyzer.Pipeline.dumps in
      if List.length ops < 6 then
        QCheck.Test.fail_reportf "journal too small at seed %d" seed;
      let batches = chunk 3 ops in
      let probes =
        [ "!r198.18.0.0/24"; "!r198.18.1.0/24"; "!gAS64511"; "!iAS-NOWHERE" ]
      in
      let observe db = (Serve.session_lines db probes, Generation.fingerprint db) in
      let shadow = Generation.init (Db.ir base) in
      let expected = ref [ observe (Generation.current shadow) ] in
      List.iter
        (fun batch ->
          ignore (Generation.apply shadow batch);
          expected := observe (Generation.current shadow) :: !expected)
        batches;
      let expected = List.rev !expected in
      let n_gens = List.length batches + 1 in
      if
        List.length (List.sort_uniq compare (List.map snd expected)) <> n_gens
      then
        QCheck.Test.fail_reportf
          "seed %d: batches did not produce %d distinct generations" seed n_gens;
      let store = Generation.init (Db.ir base) in
      let torn = Atomic.make 0 in
      (* Each swap waits until some reader has completed a read since the
         previous swap (bounded, so a reader crash cannot wedge the
         writer) — otherwise a loaded single-core host can apply every
         batch before any reader iterates, and the "observed more than
         one generation" liveness check below flakes. *)
      let reads = Atomic.make 0 in
      let readers =
        List.init 8 (fun _ ->
            Domain.spawn (fun () ->
                let iters = ref 0 in
                let distinct = ref [] in
                while Generation.generation store < n_gens && !iters < 2_000 do
                  incr iters;
                  let got = observe (Generation.current store) in
                  Atomic.incr reads;
                  if not (List.mem got expected) then Atomic.incr torn;
                  if not (List.mem (snd got) !distinct) then
                    distinct := snd got :: !distinct
                done;
                (* one more read after the last swap *)
                let last = observe (Generation.current store) in
                if not (List.mem last expected) then Atomic.incr torn;
                if not (List.mem (snd last) !distinct) then
                  distinct := snd last :: !distinct;
                List.length !distinct))
      in
      List.iter
        (fun batch ->
          let mark = Atomic.get reads in
          let waited = ref 0 in
          while Atomic.get reads <= mark && !waited < 5_000 do
            incr waited;
            Unix.sleepf 0.002
          done;
          ignore (Generation.apply store batch))
        batches;
      let seen = List.map Domain.join readers in
      if Atomic.get torn > 0 then
        QCheck.Test.fail_reportf "seed %d: %d torn reads" seed (Atomic.get torn);
      if Generation.generation store <> n_gens then
        QCheck.Test.fail_reportf "seed %d: expected %d generations, got %d" seed
          n_gens (Generation.generation store);
      if List.for_all (fun n -> n <= 1) seen then
        QCheck.Test.fail_reportf
          "seed %d: no reader ever observed more than one generation live" seed;
      true)

(* Applying a journal as generation swaps must land on a database
   byte-identical (canonical fingerprint) to re-ingesting the post-edit
   registry from scratch. *)
let qcheck_incremental_equals_batch =
  QCheck.Test.make ~count:6 ~name:"nrtm journal: generation swaps == batch re-ingest"
    QCheck.(make ~print:Print.(pair int int) Gen.(pair (int_bound 9_999) (int_range 4 32)))
    (fun (seed, n) ->
      let world = Lazy.force small_world in
      let base = Lazy.force base_db in
      let dumps = world.Rpslyzer.Pipeline.dumps in
      let ops = Nrtm.generate ~seed ~n dumps in
      let store = Generation.init (Db.ir base) in
      List.iter (fun batch -> ignore (Generation.apply store batch)) (chunk 3 ops);
      let fp_incremental = Generation.fingerprint (Generation.current store) in
      let fp_batch =
        Generation.fingerprint (Db.of_dumps (Nrtm.apply_to_dumps ops dumps))
      in
      if fp_incremental <> fp_batch then
        QCheck.Test.fail_reportf
          "fingerprints diverge at seed %d n %d (%d ops): %s vs %s" seed n
          (List.length ops) fp_incremental fp_batch;
      true)

(* ---- live telemetry: !s scrapes, access-log differential ---- *)

(* Unwrap a one-query Data reply: "A<len>\n<payload>..." -> payload. *)
let unframe reply =
  match String.index_opt reply '\n' with
  | Some i when String.length reply > 1 && reply.[0] = 'A' -> (
    match int_of_string_opt (String.sub reply 1 (i - 1)) with
    | Some len when String.length reply >= i + 1 + len ->
      String.sub reply (i + 1) len
    | _ -> Alcotest.failf "bad data frame: %S" reply)
  | _ -> Alcotest.failf "not a data frame: %S" reply

let scrape addr =
  let payload = unframe (Serve.client addr [ "!s" ]) in
  match Obs.parse_prometheus payload with
  | Ok samples -> samples
  | Error e -> Alcotest.failf "!s exposition does not parse: %s\n%s" e payload

let sample name samples =
  match
    List.find_opt (fun (s : Obs.prom_sample) -> s.Obs.p_name = name) samples
  with
  | Some s -> s.Obs.p_value
  | None -> Alcotest.failf "!s exposition lacks sample %s" name

(* One poller scrapes !s continuously while a second session drives three
   live generation swaps: every exposition must strict-parse, cumulative
   counters must be monotone across polls, and the post-swap scrape must
   report the new serial — no torn scrape under churn. *)
let test_scrape_soak_under_swaps () =
  Obs.enable ();
  let world = Lazy.force small_world in
  let base = Lazy.force base_db in
  let ops = Nrtm.generate ~seed:55 ~n:24 world.Rpslyzer.Pipeline.dumps in
  let batches = chunk 3 ops in
  Alcotest.(check int) "three batches" 3 (List.length batches);
  let n_gens = List.length batches + 1 in
  let store = Generation.init (Db.ir base) in
  with_server ~journal:batches store @@ fun addr ->
  (* Swap i waits for the poller's (i+1)-th scrape, so every swap lands
     between two polls no matter how the scheduler interleaves the
     domains (a plain sleep let loaded machines finish all swaps inside
     the first scrape). The wait is bounded so a poller crash cannot
     wedge the join in Fun.protect. *)
  let poll_count = Atomic.make 0 in
  let swapper =
    Domain.spawn (fun () ->
        List.iteri
          (fun i _ ->
            let waited = ref 0 in
            while Atomic.get poll_count <= i && !waited < 5_000 do
              incr waited;
              Unix.sleepf 0.002
            done;
            ignore (Serve.client addr [ "!u" ]))
          batches)
  in
  Fun.protect ~finally:(fun () -> Domain.join swapper) @@ fun () ->
  let polls = ref 0 in
  let last_queries = ref 0.0 in
  let gens_seen = ref [] in
  while Generation.generation store < n_gens && !polls < 500 do
    incr polls;
    Atomic.incr poll_count;
    let samples = scrape addr in
    let queries = sample "serve_queries_total" samples in
    if queries < !last_queries then
      Alcotest.failf "serve_queries_total went backwards: %g -> %g"
        !last_queries queries;
    last_queries := queries;
    let gen = sample "serve_generation" samples in
    if not (List.mem gen !gens_seen) then gens_seen := gen :: !gens_seen
  done;
  Alcotest.(check bool) "polled while swapping" true (!polls >= 3);
  Alcotest.(check int) "all generations published" n_gens
    (Generation.generation store);
  (* the scrape that follows the last swap reports it *)
  let samples = scrape addr in
  Alcotest.(check (float 0.0)) "post-swap generation"
    (float_of_int n_gens) (sample "serve_generation" samples);
  Alcotest.(check (float 0.0)) "post-swap serial"
    (float_of_int (Generation.last_serial store))
    (sample "serve_serial" samples);
  Alcotest.(check bool) "final serial advanced" true
    (Generation.last_serial store > 0)

(* Acceptance differential: the !s windowed qps and rolling p50/p99 must
   match an offline recomputation from the structured access log, within
   histogram bucket error, with three generation swaps mid-run. Every
   dispatched query (including !q and earlier !s scrapes) is windowed
   with exactly the latency the access log records; !u is handled
   outside dispatch (logged, not windowed); the final scrape's own
   observation lands after its exposition is built, so the offline set
   is every record written before it. *)
let test_scrape_matches_access_log () =
  Obs.enable ();
  Obs.reset ();
  let world = Lazy.force small_world in
  let base = Lazy.force base_db in
  let ops = Nrtm.generate ~seed:77 ~n:24 world.Rpslyzer.Pipeline.dumps in
  let batches = chunk 3 ops in
  Alcotest.(check int) "three batches" 3 (List.length batches);
  let log_path = Filename.temp_file "rz_access" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove log_path with Sys_error _ -> ())
  @@ fun () ->
  let alog = Rz_serve.Access_log.create log_path in
  let store = Generation.init (Db.ir base) in
  let final_scrape =
    Fun.protect ~finally:(fun () -> Rz_serve.Access_log.close alog) @@ fun () ->
    with_server ~journal:batches ~access_log:alog store @@ fun addr ->
    ignore (Serve.client addr [ "!gAS64500"; "!r198.18.0.0/24" ]);
    ignore (Serve.client addr [ "!u" ]);
    ignore (Serve.client addr [ "!s" ]);
    ignore (Serve.client addr [ "!iAS-NOWHERE"; "!gAS64501" ]);
    ignore (Serve.client addr [ "!u" ]);
    ignore (Serve.client addr [ "!aAS-NOWHERE" ]);
    ignore (Serve.client addr [ "!u" ]);
    Alcotest.(check int) "three swaps mid-run" 4 (Generation.generation store);
    scrape addr
  in
  (* offline recomputation from the flushed access log *)
  let records =
    let ic = open_in log_path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go acc =
      match input_line ic with
      | line -> (
        match Json.of_string line with
        | Ok doc -> go (doc :: acc)
        | Error e -> Alcotest.failf "access record does not parse: %s: %s" e line)
      | exception End_of_file -> List.rev acc
    in
    go []
  in
  let str doc key =
    match Json.member key doc with
    | Some (Json.String s) -> s
    | _ -> Alcotest.failf "access record lacks string %S" key
  in
  let int_field doc key =
    match Json.member key doc with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "access record lacks int %S" key
  in
  Alcotest.(check bool) "log has records" true (records <> []);
  Alcotest.(check bool) "every !u logged" true
    (List.length (List.filter (fun r -> str r "query" = "!u") records) = 3);
  (* records written before the final !s: everything the scrape's window
     had seen. Sessions are sequential, the writer queue is FIFO, so log
     order is dispatch order. *)
  let last_s =
    let rec find i best = function
      | [] -> best
      | r :: rest ->
        find (i + 1) (if str r "query" = "!s" then i else best) rest
    in
    find 0 (-1) records
  in
  Alcotest.(check bool) "final !s logged" true (last_s >= 0);
  let windowed =
    List.filteri (fun i _ -> i < last_s) records
    |> List.filter (fun r ->
           str r "query" <> "!u" && Json.member "rejected" r = None)
  in
  let scratch = Obs.Histogram.make "test.accesslog.recompute" in
  List.iter
    (fun r -> Obs.Histogram.observe scratch (float_of_int (int_field r "latency_ns")))
    windowed;
  let n = List.length windowed in
  Alcotest.(check (float 0.0)) "windowed count = access-log recomputation"
    (float_of_int n)
    (sample "serve_query_window_window_count" final_scrape);
  let span_s = sample "serve_query_window_window_span_seconds" final_scrape in
  Alcotest.(check (float 1e-9)) "windowed qps = count / span"
    (float_of_int n /. span_s)
    (sample "serve_query_window_window_rate" final_scrape);
  (* same bucket math on both sides: quantiles agree within one log
     bucket (the histogram bucket error bound) *)
  let g = Obs.Histogram.gamma scratch in
  let check_quantile label q prom_name =
    let offline = Obs.Histogram.quantile scratch q in
    let live = sample prom_name final_scrape in
    Alcotest.(check bool)
      (Printf.sprintf "%s within bucket error (offline %g, live %g)" label
         offline live)
      true
      (live >= offline /. g && live <= offline *. g)
  in
  check_quantile "rolling p50" 0.5 "serve_query_window_window_p50";
  check_quantile "rolling p99" 0.99 "serve_query_window_window_p99";
  Alcotest.(check (float 0.0)) "no access records dropped" 0.0
    (sample "obs_accesslog_dropped" final_scrape)

let test_stale_ops_skipped () =
  Obs.enable ();
  let ops = Nrtm.generate ~seed:9 ~n:5 [ ("TEST", fixture) ] in
  Alcotest.(check bool) "journal non-empty" true (ops <> []);
  let store = Generation.init (Db.ir (Lazy.force db)) in
  let g1 = Generation.apply store ops in
  Alcotest.(check int) "first apply publishes" 2 g1;
  let fp1 = Generation.fingerprint (Generation.current store) in
  let stale_before = counter "nrtm.ops_stale" in
  let g2 = Generation.apply store ops in
  Alcotest.(check int) "replayed journal publishes nothing" g1 g2;
  Alcotest.(check int) "stale ops counted"
    (stale_before + List.length ops)
    (counter "nrtm.ops_stale");
  Alcotest.(check string) "content unchanged" fp1
    (Generation.fingerprint (Generation.current store))

let suite =
  [ Alcotest.test_case "dispatch conformance pins" `Quick test_dispatch_conformance;
    Alcotest.test_case "dispatch == answer on clean queries" `Quick
      test_dispatch_matches_answer;
    Alcotest.test_case "dispatch guards + counters" `Quick test_dispatch_guards;
    Alcotest.test_case "server round-trip (unix socket)" `Quick
      test_server_roundtrip_unix;
    Alcotest.test_case "server round-trip (tcp ephemeral)" `Quick
      test_server_roundtrip_tcp_ephemeral;
    Alcotest.test_case "!u applies journal batches" `Quick test_server_journal_u;
    Alcotest.test_case "hostile: truncated command" `Quick test_hostile_truncated;
    Alcotest.test_case "hostile: pipelined garbage" `Quick
      test_hostile_pipelined_garbage;
    Alcotest.test_case "hostile: slowloris" `Quick test_hostile_slowloris;
    Alcotest.test_case "admission: server busy" `Quick test_admission_busy;
    Alcotest.test_case "stale ops skipped" `Quick test_stale_ops_skipped;
    Alcotest.test_case "!s soak across live swaps" `Quick
      test_scrape_soak_under_swaps;
    Alcotest.test_case "!s matches access-log recomputation" `Quick
      test_scrape_matches_access_log;
    QCheck_alcotest.to_alcotest qcheck_incremental_equals_batch;
    QCheck_alcotest.to_alcotest qcheck_soak ]
