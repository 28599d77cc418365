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
     agree with Irrd_query.answer, and session_lines with the rendered
     answers up to !q *)
  let db = Lazy.force db in
  List.iter
    (fun (query, _) ->
      Alcotest.(check string) query
        (Q.render (Q.answer db query))
        (Q.render (Serve.dispatch db query)))
    conformance_pins;
  let before_quit = [ "!nbgpq4"; "!gAS65001"; "!iAS-CONE,1" ] in
  Alcotest.(check string) "session_lines == answers up to !q"
    (String.concat "" (List.map (fun q -> Q.render (Q.answer db q)) before_quit))
    (Serve.session_lines db (before_quit @ [ "!q"; "!gAS65001" ]))

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

(* ---- patched generations == rebuilt generations ---- *)

let canon = Rz_rpsl.Set_name.canonical

(* A generation built from scratch out of a copy of the live IR. *)
let rebuilt db =
  let db = Db.build (Rz_ir.Ir.copy (Db.ir db)) in
  Db.warm_caches db;
  db

(* The (prefix, origin) keys of a journal's route paragraphs, so the
   comparison also asks about route objects the journal removed. *)
let journal_routes ops =
  List.concat_map
    (fun (op : Nrtm.op) ->
      List.filter_map
        (fun (obj : Rz_rpsl.Obj.t) ->
          match (obj.cls, Rz_rpsl.Obj.value obj "origin") with
          | ("route" | "route6"), Some o -> (
            match (Rz_net.Prefix.of_string obj.name, Rz_net.Asn.of_string o) with
            | Ok p, Ok a -> Some (p, a)
            | _ -> None)
          | _ -> None)
        (Rz_rpsl.Reader.parse_string op.text).objects)
    ops

(* What can be asked of a generation: every set name, origin and route
   prefix of its IR, plus [extra] route keys. *)
let universe db extra =
  let ir = Db.ir db in
  let names =
    List.sort_uniq compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) ir.Rz_ir.Ir.as_sets []
       @ Hashtbl.fold (fun k _ acc -> k :: acc) ir.Rz_ir.Ir.route_sets [])
  in
  let routes =
    Rz_ir.Ir.fold_routes ir ~init:extra ~f:(fun acc r ->
        (r.Rz_ir.Ir.prefix, r.Rz_ir.Ir.origin) :: acc)
  in
  let origins =
    List.sort_uniq compare
      (List.map snd routes @ Hashtbl.fold (fun a _ acc -> a :: acc) ir.Rz_ir.Ir.aut_nums [])
  in
  (names, origins, List.sort_uniq Rz_net.Prefix.compare (List.map fst routes))

(* Everything a reader can ask of one set. *)
let set_answer db name =
  ( Db.Asn_set.elements (Db.flatten_as_set db name),
    Db.flatten_route_set db name,
    Db.as_set_depth db name,
    Db.as_set_has_loop db name )

(* Every query kind the service answers from a database. *)
let probes (names, origins, prefixes) =
  List.concat_map (fun n -> [ "!i" ^ n; "!i" ^ n ^ ",1"; "!a" ^ n; "!a6" ^ n ]) names
  @ List.concat_map
      (fun o -> let a = Rz_net.Asn.to_string o in [ "!g" ^ a; "!6" ^ a ])
      origins
  @ List.concat_map
      (fun p ->
        let s = Rz_net.Prefix.to_string p in
        [ "!r" ^ s; "!r" ^ s ^ ",l"; "!r" ^ s ^ ",o" ])
      prefixes

(* Everything a reader holding a generation can see of it, digested. *)
let view_digest db ((_, origins, prefixes) as u) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (Suite_stream.db_view db ~origins ~prefixes, Serve.session_lines db (probes u))
          [ Marshal.No_sharing ]))

(* The ASNs an as-set has, resolved with no bound: direct members,
   authorized [member-of] claims, and the members of nested as-sets. *)
let unbounded_members (ir : Rz_ir.Ir.t) name =
  let seen = Hashtbl.create 16 and acc = ref [] in
  let rec go key =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      match Hashtbl.find_opt ir.as_sets key with
      | None -> ()
      | Some s ->
        acc := s.member_asns @ !acc;
        Hashtbl.iter
          (fun _ (an : Rz_ir.Ir.aut_num) ->
            if
              List.exists (fun m -> canon m = key) an.member_of
              && List.exists
                   (fun m ->
                     Rz_util.Strings.equal_ci m "ANY"
                     || List.exists (Rz_util.Strings.equal_ci m) an.mnt_by)
                   s.mbrs_by_ref
            then acc := an.asn :: !acc)
          ir.aut_nums;
        List.iter (fun c -> go (canon c)) s.member_sets
    end
  in
  go (canon name);
  List.sort_uniq compare !acc

(* Whether a fresh build asked for [name] before any other set flags it. *)
let fresh_flags ir name =
  let db = Db.build (Rz_ir.Ir.copy ir) in
  if Db.as_set_exists db name then ignore (Db.flatten_as_set db name)
  else ignore (Db.flatten_route_set db name);
  Db.flatten_truncated db name

(* What keeps the live generation from answering as a rebuilt one
   does. A set past a resolution bound keeps db.mli's contract instead:
   where the work ran out depends on what was memoized, so its answers
   may differ, but the patched generation lists no member the set lacks
   and flags it only where a fresh build asked for it first flags it.
   Every other set, and every query that reads no set past a bound,
   must agree exactly. *)
let generation_problems live extra =
  let built = rebuilt live in
  let names, origins, prefixes = universe live extra in
  let ir = Db.ir live in
  let flagged = List.sort_uniq compare (Db.truncated_sets live @ Db.truncated_sets built) in
  let set_problem name =
    if not (List.mem name flagged) then
      if set_answer live name = set_answer built name then None
      else Some (name ^ " answers differently")
    else
      let asns, _, _, _ = set_answer live name in
      let has = unbounded_members ir name in
      if not (List.for_all (fun a -> List.mem a has) asns) then
        Some (name ^ " past a bound lists a member it lacks")
      else if Db.flatten_truncated live name && not (fresh_flags ir name) then
        Some (name ^ " is flagged where a fresh build does not flag it")
      else None
  in
  let differ what f = if f live = f built then None else Some (what ^ " differ") in
  let unflagged = List.filter (fun n -> not (List.mem n flagged)) names in
  List.filter_map set_problem names
  @ List.filter_map Fun.id
      [ differ "origin prefixes" (fun db ->
            List.map (fun o -> (Db.origin_prefixes db o, Db.origin_has_routes db o)) origins);
        differ "covering routes" (fun db ->
            List.map (fun p -> (Db.covering_routes db p, Db.exact_origins db p)) prefixes);
        differ "query transcripts" (fun db ->
            Serve.session_lines db (probes (unflagged, origins, prefixes))) ]

let check_generation label store extra =
  match generation_problems (Generation.current store) extra with
  | [] -> ()
  | problems -> Alcotest.failf "%s: %s" label (String.concat "; " problems)

let qcheck_patched_equals_rebuilt =
  QCheck.Test.make ~count:4 ~name:"nrtm journal: patched generation == rebuilt generation"
    QCheck.(make ~print:Print.(pair int int) Gen.(pair (int_bound 9_999) (int_range 8 40)))
    (fun (seed, n) ->
      let world = Lazy.force small_world in
      let ops = Nrtm.generate ~seed ~n world.Rpslyzer.Pipeline.dumps in
      let extra = journal_routes ops in
      let store = Generation.init (Db.ir (Lazy.force base_db)) in
      List.iteri
        (fun i batch ->
          ignore (Generation.apply store batch);
          match generation_problems (Generation.current store) extra with
          | [] -> ()
          | p :: _ -> QCheck.Test.fail_reportf "seed %d n %d batch %d: %s" seed n i p)
        (chunk 4 ops);
      true)

(* A registry and journal for the op kinds [Nrtm.generate] never emits. *)
let patch_fixture =
  "mntner: MNT-A\nauth: NONE\n\n\
   aut-num: AS65020\nas-name: TWENTY\nimport: from AS65021 accept ANY\nmnt-by: MNT-A\n\n\
   aut-num: AS65021\nas-name: TWENTYONE\nmember-of: AS-REF\nmnt-by: MNT-B\n\n\
   as-set: AS-REF\nmembers: AS65010\nmbrs-by-ref: MNT-A\n\n\
   as-set: AS-TOP\nmembers: AS-REF, AS65011\n\n\
   route-set: RS-REF\nmembers: 203.0.113.0/24\nmbrs-by-ref: ANY\n\n\
   route-set: RS-TOP\nmembers: RS-REF, AS65020^+\n\n\
   filter-set: FLTR-X\nfilter: AS-TOP\n\n\
   peering-set: PRNG-X\npeering: AS-TOP\n\n\
   route: 192.0.2.0/24\norigin: AS65020\nmnt-by: MNT-A\n\n\
   route: 192.0.2.0/24\norigin: AS65021\n\n\
   route: 198.51.100.0/24\norigin: AS65021\n"

let chain_set i =
  Printf.sprintf "as-set: AS-CHAIN%d\nmembers: %s" i
    (if i = 69 then "AS65030" else Printf.sprintf "AS-CHAIN%d" (i + 1))

(* Batches of (action, paragraph); serials are assigned in order. *)
let patch_journal =
  let aut_num ~member_of ~mnt =
    Printf.sprintf "aut-num: %s\nas-name: X\nimport: from AS65021 accept ANY%s\nmnt-by: %s"
      "AS65020" (if member_of then "\nmember-of: AS-REF" else "") mnt
  in
  let open Nrtm in
  [ (* member-of gained into an as-set with mbrs-by-ref; a route's
       member-of into a route-set; a bare replacing ADD *)
    [ (Add, aut_num ~member_of:true ~mnt:"MNT-A");
      (Add, "route: 198.51.100.0/24\norigin: AS65020\nmember-of: RS-REF\nmnt-by: MNT-A");
      (Add, "route: 192.0.2.0/24\norigin: AS65020\nmnt-by: MNT-A") ];
    (* route6; set classes created *)
    [ (Add, "route6: 2001:db8:1::/48\norigin: AS65020");
      (Add, "route-set: RS-NEW\nmembers: 10.0.0.0/8, RS-REF, AS-TOP");
      (Add, "filter-set: FLTR-NEW\nfilter: RS-NEW");
      (Add, "peering-set: PRNG-NEW\npeering: AS-REF") ];
    (* set classes deleted; mntner ops *)
    [ (Del, "filter-set: FLTR-X\nfilter: AS-TOP");
      (Del, "peering-set: PRNG-X\npeering: AS-TOP");
      (Del, "route-set: RS-NEW\nmembers: 10.0.0.0/8");
      (Add, "mntner: MNT-C\nauth: NONE");
      (Del, "mntner: MNT-A\nauth: NONE") ];
    (* absent keys, an unparsable paragraph, member-of lost, a member-of
       route deleted, a claim authorized by an mnt-by change *)
    [ (Del, "aut-num: AS65099\nas-name: NONE");
      (Del, "route: 203.0.113.0/24\norigin: AS65099");
      (Add, "this paragraph is not rpsl");
      (Add, aut_num ~member_of:false ~mnt:"MNT-A");
      (Del, "route: 198.51.100.0/24\norigin: AS65020");
      (Add, "aut-num: AS65021\nas-name: TWENTYONE\nmember-of: AS-REF\nmnt-by: MNT-A") ];
    (* a chain deeper than the depth bound, and a loop *)
    List.init 70 (fun i -> (Add, chain_set i))
    @ [ (Add, "as-set: AS-LOOP1\nmembers: AS-LOOP2");
        (Add, "as-set: AS-LOOP2\nmembers: AS-LOOP1, AS-REF") ];
    (* the chain cut in two *)
    [ (Del, chain_set 30) ] ]
  |> List.fold_left_map
       (fun serial batch ->
         List.fold_left_map
           (fun serial (action, text) ->
             (serial + 1, { serial = serial + 1; source = "TEST"; action; text }))
           serial batch)
       0
  |> snd

let test_patched_hand_journal () =
  Obs.enable ();
  let base = Db.of_dumps [ ("TEST", patch_fixture) ] in
  let extra = journal_routes (List.concat patch_journal) in
  let store = Generation.init (Db.ir base) in
  check_generation "generation 1" store extra;
  let p = Rz_net.Prefix.of_string_exn in
  List.iteri
    (fun i batch ->
      let rejected = counter "nrtm.ops_rejected" in
      ignore (Generation.apply store batch);
      let live = Generation.current store in
      check_generation (Printf.sprintf "batch %d" i) store extra;
      match i with
      | 0 ->
        Alcotest.(check bool) "member-of gained" true (Db.asn_in_as_set live "AS-TOP" 65020);
        Alcotest.(check bool) "route member-of" true
          (List.mem_assoc (p "198.51.100.0/24") (Db.flatten_route_set live "RS-TOP"));
        Alcotest.(check (list int)) "replaced route object is the newest" [ 65021; 65020 ]
          (Db.exact_origins live (p "192.0.2.0/24"))
      | 3 ->
        Alcotest.(check int) "unparsable paragraph rejected" (rejected + 1)
          (counter "nrtm.ops_rejected");
        Alcotest.(check (list int)) "member-of lost, unauthorized claim now authorized"
          [ 65010; 65021 ] (Db.Asn_set.elements (Db.flatten_as_set live "AS-REF"))
      | 4 ->
        Alcotest.(check bool) "the chain root is past the depth bound" true
          (fresh_flags (Db.ir live) "AS-CHAIN0")
      | _ -> ())
    patch_journal;
  Alcotest.(check int) "one generation per batch" (1 + List.length patch_journal)
    (Generation.generation store)

(* A reader holding a generation sees it unchanged by later swaps: the
   copy a swap patches shares no trie node, table or index with it. *)
let test_generation_isolation () =
  let world = Lazy.force small_world in
  let ops = Nrtm.generate ~seed:21 ~n:30 world.Rpslyzer.Pipeline.dumps in
  let extra = journal_routes ops in
  let store = Generation.init (Db.ir (Lazy.force base_db)) in
  List.iter
    (fun batch ->
      let held = Generation.current store in
      let u = universe held extra in
      let before = view_digest held u in
      ignore (Generation.apply store batch);
      Alcotest.(check string) "held generation unchanged" before (view_digest held u);
      Alcotest.(check bool) "the new generation differs" true
        (view_digest (Generation.current store) u <> before))
    (chunk 3 ops)

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

(* Acceptance differential: the !s latency histogram must match an
   offline recomputation from the structured access log exactly, count
   and every cumulative bucket, with three generation swaps mid-run.
   After [Obs.reset] the lifetime histogram covers exactly this run.
   Every dispatched query (including !q and earlier !s scrapes) is
   observed with exactly the latency the access log records; !u is
   handled outside dispatch (logged, not timed) and guard rejections are
   logged before timing; the final scrape's own observation lands after
   its exposition is built, so the offline set is every record written
   before it. *)
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
  (* records written before the final !s: everything the scrape's
     histogram had seen. Sessions are sequential, the writer queue is
     FIFO, so log order is dispatch order. *)
  let last_s =
    let rec find i best = function
      | [] -> best
      | r :: rest ->
        find (i + 1) (if str r "query" = "!s" then i else best) rest
    in
    find 0 (-1) records
  in
  Alcotest.(check bool) "final !s logged" true (last_s >= 0);
  let timed =
    List.filteri (fun i _ -> i < last_s) records
    |> List.filter (fun r ->
           str r "query" <> "!u" && Json.member "rejected" r = None)
  in
  let scratch = Obs.Histogram.make "test.accesslog.recompute" in
  List.iter
    (fun r -> Obs.Histogram.observe scratch (float_of_int (int_field r "latency_ns")))
    timed;
  (* both sides through the same exposition: equal bucket bounds and
     cumulative counts *)
  let buckets name samples =
    List.filter_map
      (fun (s : Obs.prom_sample) ->
        if s.Obs.p_name = name ^ "_bucket" then
          Some (List.assoc "le" s.Obs.p_labels, s.Obs.p_value)
        else None)
      samples
  in
  let offline =
    match Obs.parse_prometheus (Obs.to_prometheus (Obs.Registry.snapshot ())) with
    | Ok samples -> samples
    | Error e -> Alcotest.failf "offline exposition does not parse: %s" e
  in
  Alcotest.(check (float 0.0)) "query count = access-log recount"
    (float_of_int (List.length timed))
    (sample "serve_query_ns_count" final_scrape);
  Alcotest.(check (list (pair string (float 0.0))))
    "cumulative buckets = access-log recount"
    (buckets "test_accesslog_recompute" offline)
    (buckets "serve_query_ns" final_scrape);
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

(* ---- bounded queue: session admission and the access-log writer ---- *)

module Bq = Rz_serve.Bqueue

let drain q =
  let rec go acc = match Bq.pop q with Some x -> go (x :: acc) | None -> List.rev acc in
  go []

let test_bqueue_block_lossless () =
  (* eight pushes through two slots: the producer blocks instead of
     losing anything *)
  let q = Bq.create ~capacity:2 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to 8 do
          Bq.push q i
        done;
        Bq.close q)
  in
  let got = drain q in
  Domain.join producer;
  Alcotest.(check (list int)) "FIFO, nothing lost" [ 1; 2; 3; 4; 5; 6; 7; 8 ] got

let test_bqueue_close_semantics () =
  let q = Bq.create ~capacity:4 in
  Bq.push q 1;
  Bq.push q 2;
  Bq.close q;
  Alcotest.(check bool) "drains after close" true (Bq.pop q = Some 1 && Bq.pop q = Some 2);
  Alcotest.(check bool) "then None" true (Bq.pop q = None);
  Alcotest.(check bool) "push after close raises" true
    (match Bq.push q 3 with
     | exception Invalid_argument _ -> true
     | () -> false)

let test_access_log_quota () =
  let path = Filename.temp_file "rz_access" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let alog =
    Rz_serve.Access_log.create ~sampling:(Rz_trace.Trace.Per_status 1) path
  in
  List.iter
    (fun verdict ->
      Rz_serve.Access_log.log alog ~peer:"test" ~query:"!gAS1" ~verdict
        ~latency_ns:1 ~generation:1 ~serial:0 ())
    [ "data"; "data"; "no_data"; "not_found"; "data"; "error"; "no_data"; "error" ];
  Rz_serve.Access_log.close alog;
  let classes =
    String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
    |> List.filter (fun l -> l <> "")
    |> List.map (fun line ->
           match Json.of_string line with
           | Ok doc -> (
             match Json.member "class" doc with
             | Some (Json.String c) -> c
             | _ -> Alcotest.failf "record lacks a class: %s" line)
           | Error e -> Alcotest.failf "record does not parse: %s: %s" e line)
  in
  Alcotest.(check (list string)) "one line per class, first come"
    [ "data"; "no_data"; "not_found"; "error" ] classes

(* --connect targets: a decimal port in range, bare or after "host:",
   dials TCP; anything else (a radix prefix, a sign, a path) is a Unix
   socket path, never a different port. *)
let test_address_of_string () =
  let show = function
    | Serve.Port p -> Printf.sprintf "port %d" p
    | Serve.Socket path -> Printf.sprintf "socket %s" path
  in
  List.iter
    (fun (text, want) ->
      Alcotest.(check string) text (show want) (show (Serve.address_of_string text)))
    [ ("8080", Serve.Port 8080);
      ("host:8080", Serve.Port 8080);
      ("0", Serve.Port 0);
      ("65535", Serve.Port 65535);
      ("65536", Serve.Socket "65536");
      ("0x1F90", Serve.Socket "0x1F90");
      ("host:-1", Serve.Socket "host:-1");
      ("+8080", Serve.Socket "+8080");
      ("/tmp/s", Serve.Socket "/tmp/s") ]

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
    QCheck_alcotest.to_alcotest qcheck_soak;
    Alcotest.test_case "bqueue block lossless" `Quick test_bqueue_block_lossless;
    Alcotest.test_case "bqueue close semantics" `Quick test_bqueue_close_semantics;
    Alcotest.test_case "access log per-class quota" `Quick test_access_log_quota;
    QCheck_alcotest.to_alcotest qcheck_patched_equals_rebuilt;
    Alcotest.test_case "hand journal: patched == rebuilt" `Quick test_patched_hand_journal;
    Alcotest.test_case "copy-on-write isolation" `Quick test_generation_isolation;
    Alcotest.test_case "connect address parse" `Quick test_address_of_string ]
