(* Tests for the fault-injection harness (Rz_fault) and the recovery
   paths it exists to exercise: the bounded reader, the bounded
   flatteners, the capped NFA compiler, the snapshot decoder, and the
   ROA, journal and query parsers. *)

module Fault = Rz_fault.Fault
module Reader = Rz_rpsl.Reader
module Db = Rz_irr.Db
module Obs = Rz_obs.Obs

let sample_dump =
  "aut-num: AS65001\n\
   as-name: ONE\n\
   import: from AS65002 accept ANY\n\
   export: to AS65002 announce AS65001\n\
   \n\
   as-set: AS-ONE\n\
   members: AS65001, AS65003\n\
   \n\
   route: 192.0.2.0/24\n\
   origin: AS65001\n\
   \n\
   route: 198.51.100.0/24\n\
   origin: AS65003\n"

let plan ?kinds ~rate () = Fault.plan ?kinds ~seed:99 ~rate ()

(* ---- the injector itself ---- *)

let test_determinism () =
  let p = plan ~rate:0.7 () in
  let a, ra = Fault.corrupt_dump p sample_dump in
  let b, rb = Fault.corrupt_dump p sample_dump in
  Alcotest.(check string) "same plan, same bytes" a b;
  Alcotest.(check int) "same fault count" (Fault.total_faults ra) (Fault.total_faults rb);
  let p2 = Fault.plan ~seed:100 ~rate:0.7 () in
  let c, _ = Fault.corrupt_dump p2 sample_dump in
  Alcotest.(check bool) "different seed, different bytes" true (a <> c)

let test_rate_zero_identity () =
  let out, report = Fault.corrupt_dump (plan ~rate:0.0 ()) sample_dump in
  Alcotest.(check string) "byte-identical" sample_dump out;
  Alcotest.(check int) "no faults" 0 (Fault.total_faults report)

(* The name [report_lines] prints for kind [k]: the one per-kind row of
   a single-kind run at rate 1. *)
let printed_name k =
  let _, report = Fault.corrupt_dump (plan ~kinds:[ k ] ~rate:1.0 ()) sample_dump in
  match List.filteri (fun i _ -> i >= 2) (Fault.report_lines report) with
  | [ row ] -> List.hd (String.split_on_char ' ' (String.trim row))
  | rows -> Alcotest.failf "expected one per-kind row, got %d" (List.length rows)

let test_kind_names_roundtrip () =
  (* every name the CLI report prints is one [--kinds] accepts *)
  List.iter
    (fun k ->
      let name = printed_name k in
      match Fault.kind_of_name name with
      | Some k' -> Alcotest.(check bool) name true (k = k')
      | None -> Alcotest.failf "kind %s does not roundtrip" name)
    Fault.all_kinds;
  Alcotest.(check bool) "unknown name" true (Fault.kind_of_name "no-such-kind" = None)

let test_every_kind_applies () =
  List.iteri
    (fun i k ->
      let p = plan ~kinds:[ k ] ~rate:1.0 () in
      let _, report = Fault.corrupt_dump p sample_dump in
      let n = Option.value ~default:0 (List.assoc_opt k report.faults) in
      Alcotest.(check bool) (Printf.sprintf "kind %d fires at rate 1" i) true (n > 0))
    Fault.all_kinds

(* ---- reader robustness ---- *)

let test_parse_corrupted_never_raises () =
  (* every kind at full blast, several seeds: the reader must return a
     result (objects + errors), never raise, and account for what it saw *)
  List.iter
    (fun seed ->
      let p = Fault.plan ~seed ~rate:1.0 () in
      let corrupted, _ = Fault.corrupt_dump p sample_dump in
      let r = Reader.scan_string corrupted in
      Alcotest.(check bool) "some objects survive or errors recorded" true
        (r.objects <> [] || r.errors <> []))
    [ 1; 2; 3; 4; 5 ]

(* Both bounds are driven at their real values, through the product
   reader, with the reference reader held equal. *)
let metered_scan text =
  Obs.enable ();
  Obs.reset ();
  let r = Reader.scan_string text in
  let dropped = Obs.Counter.get (Obs.Counter.make "reader.lines_dropped") in
  Obs.disable ();
  Alcotest.(check bool) "scan_string = parse_string" true (r = Reader.parse_string text);
  (r, dropped)

let test_reader_oversized_line_dropped () =
  let remarks n = "remarks: " ^ String.make (n - String.length "remarks: ") 'x' in
  let text n = "aut-num: AS1\n" ^ remarks n ^ "\nas-name: X\n" in
  let r, dropped = metered_scan (text Reader.max_line_bytes) in
  Alcotest.(check int) "a line at the bound is kept" 3
    (List.length (List.hd r.objects).Rz_rpsl.Obj.attrs);
  Alcotest.(check int) "no error at the bound" 0 (List.length r.errors);
  Alcotest.(check int) "nothing dropped at the bound" 0 dropped;
  let r, dropped = metered_scan (text (Reader.max_line_bytes + 1)) in
  Alcotest.(check int) "object survives" 1 (List.length r.objects);
  Alcotest.(check int) "one error" 1 (List.length r.errors);
  Alcotest.(check int) "lines_dropped counted" 1 dropped;
  (* the surviving object keeps the attrs around the dropped line *)
  let obj = List.hd r.objects in
  Alcotest.(check int) "two attrs kept" 2 (List.length obj.Rz_rpsl.Obj.attrs)

let test_reader_error_budget () =
  let over = 5 in
  let garbage =
    String.concat "\n" (List.init (Reader.max_errors + over) (Printf.sprintf "junk %d"))
  in
  let r, dropped = metered_scan garbage in
  (* the budget's records + 1 synthetic summary *)
  Alcotest.(check int) "budget + summary" (Reader.max_errors + 1) (List.length r.errors);
  Alcotest.(check int) "lines past the budget dropped" over dropped;
  let summary = List.nth r.errors (List.length r.errors - 1) in
  Alcotest.(check string) "summary counts the suppressed"
    (Printf.sprintf "error budget (%d) exhausted; %d further errors suppressed"
       Reader.max_errors over)
    summary.reason

(* ---- hostile ROA input ---- *)

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

let fixture path = Filename.concat (Lazy.force fixture_dir) path

let slurp path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* the hostile ROA corpus: (file, loaded, rejected). Every file must parse
   without raising, load exactly the well-formed entries, and count every
   rejection on rpki.roas_rejected. *)
let roa_fixture_expectations =
  [ ("roa_truncated.roa", 2, 4);
    ("roa_duplicates.roa", 3, 3);
    ("roa_bad_maxlen.roa", 1, 5);
    ("roa_nul_injection.roa", 2, 2) ]

let test_hostile_roa_fixtures () =
  Obs.enable ();
  Obs.reset ();
  let c = Obs.Counter.make "rpki.roas_rejected" in
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) @@ fun () ->
  List.iter
    (fun (file, exp_loaded, exp_rejected) ->
      (* read the bytes as the CLI does, then decode them *)
      let parsed = Rz_rpki.Roa.parse_string (slurp (fixture file)) in
      Alcotest.(check int) (file ^ " loaded") exp_loaded parsed.loaded;
      Alcotest.(check int) (file ^ " rejected") exp_rejected parsed.n_rejected;
      Alcotest.(check int)
        (file ^ " every rejection recorded")
        parsed.n_rejected
        (List.length parsed.rejected);
      List.iter
        (fun (e : Rz_rpki.Roa.parse_error) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s line %d text sanitized" file e.line)
            false
            (String.exists (fun ch -> Char.code ch < 0x20) e.text))
        parsed.rejected)
    roa_fixture_expectations;
  let total_rejected =
    List.fold_left (fun acc (_, _, r) -> acc + r) 0 roa_fixture_expectations
  in
  Alcotest.(check int) "rpki.roas_rejected counts the corpus" total_rejected
    (Obs.Counter.get c)

let test_roa_corruption_recovery () =
  (* the faultinject drill the [rpki --fault-rate] path runs: corrupt a
     clean rendered ROA file at full blast; the parser must stay graceful
     and both fault.injected and rpki.roas_rejected must fire. *)
  Obs.enable ();
  Obs.reset ();
  let c_injected = Obs.Counter.make "fault.injected" in
  let c_rejected = Obs.Counter.make "rpki.roas_rejected" in
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) @@ fun () ->
  let clean =
    Rz_rpki.Roa.render
      [ { Rz_rpki.Roa.prefix = Rz_net.Prefix.of_string_exn "192.0.2.0/24";
          max_length = 24; origin = 65001 };
        { Rz_rpki.Roa.prefix = Rz_net.Prefix.of_string_exn "198.51.100.0/24";
          max_length = 25; origin = 65002 };
        { Rz_rpki.Roa.prefix = Rz_net.Prefix.of_string_exn "2001:db8::/32";
          max_length = 48; origin = 65003 } ]
  in
  Alcotest.(check int) "clean render has no rejects" 0
    (Rz_rpki.Roa.parse_string clean).n_rejected;
  List.iter
    (fun seed ->
      let p = Fault.plan ~seed ~rate:1.0 () in
      let corrupted, report = Fault.corrupt_dump p clean in
      Alcotest.(check bool) "faults were injected" true
        (Fault.total_faults report > 0);
      let parsed = Rz_rpki.Roa.parse_string corrupted in
      Alcotest.(check bool) "loaded and rejected account for the damage" true
        (parsed.loaded >= 0 && parsed.n_rejected >= 0))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "fault.injected fired" true (Obs.Counter.get c_injected > 0);
  Alcotest.(check bool) "rpki.roas_rejected fired" true (Obs.Counter.get c_rejected > 0)

(* ---- flattening bombs ---- *)

let corrupt_db kinds =
  let p = plan ~kinds ~rate:1.0 () in
  let corrupted, _ = Fault.corrupt_dump p sample_dump in
  Db.of_dumps [ ("TEST", corrupted) ]

let test_deep_bomb_truncates () =
  Obs.enable ();
  Obs.reset ();
  let c = Obs.Counter.make "flatten.truncated" in
  let db = corrupt_db [ Fault.As_set_deep_bomb ] in
  (* flattening the bomb root must terminate without stack overflow and
     record truncation (chain depth 96 > cap 64) *)
  let flat = Db.flatten_as_set db "AS-FAULT-DEEP-0-0" in
  Obs.disable ();
  Alcotest.(check bool) "truncation marked" true (Db.flatten_truncated db "AS-FAULT-DEEP-0-0");
  Alcotest.(check bool) "counter fired" true (Obs.Counter.get c > 0);
  (* the terminal member AS1 sits past the cap, so the flatten is partial *)
  Alcotest.(check bool) "partial result" true (not (Db.Asn_set.mem 1 flat));
  Alcotest.(check bool) "depth saturates, no overflow" true
    (Db.as_set_depth db "AS-FAULT-DEEP-0-0" <= Db.max_flatten_depth + 1);
  (* a set deep in the chain whose own walk fits under the cap answers
     in full: the root's truncated walk left it no partial memo entry *)
  let inner = "AS-FAULT-DEEP-0-40" in
  Alcotest.(check bool) "inner set complete" true (Db.asn_in_as_set db inner 1);
  Alcotest.(check bool) "inner set not flagged" false (Db.flatten_truncated db inner)

let test_deep_bomb_depth_relationship () =
  (* the bomb must actually overshoot the db cap, or the test above is
     vacuous; pin the relationship between the two literals *)
  let db = corrupt_db [ Fault.As_set_deep_bomb ] in
  Alcotest.(check bool) "bomb deeper than cap" true
    (Db.as_set_exists db (Printf.sprintf "AS-FAULT-DEEP-0-%d" (Db.max_flatten_depth + 1)))

let test_cycle_bomb_detected () =
  let db = corrupt_db [ Fault.As_set_cycle_bomb ] in
  Alcotest.(check bool) "cycle detected" true (Db.as_set_has_loop db "AS-FAULT-CYC-0-0");
  (* flattening a cycle terminates and is not marked truncated (cycles are
     cut exactly, not bounded away) *)
  ignore (Db.flatten_as_set db "AS-FAULT-CYC-0-0");
  Alcotest.(check bool) "cycle is cut, not truncated" true
    (not (Db.flatten_truncated db "AS-FAULT-CYC-0-0"))

let test_clean_sets_unaffected () =
  let db = corrupt_db [ Fault.As_set_deep_bomb ] in
  let flat = Db.flatten_as_set db "AS-ONE" in
  Alcotest.(check int) "clean set flattens fully" 2 (Db.Asn_set.cardinal flat);
  Alcotest.(check bool) "not truncated" true (not (Db.flatten_truncated db "AS-ONE"))

(* ---- pathological regex ---- *)

let test_regex_bomb_capped () =
  Obs.enable ();
  Obs.reset ();
  let c = Obs.Counter.make "nfa.capped" in
  match Rz_aspath.Regex_parse.parse "^AS2{3000,6000}$" with
  | Error e -> Alcotest.fail e
  | Ok ast ->
    Alcotest.(check bool) "estimate over budget" true
      (Rz_aspath.Regex_ast.state_estimate ast > Rz_aspath.Regex_nfa.max_states);
    let nfa = Rz_aspath.Regex_nfa.compile ast in
    Obs.disable ();
    Alcotest.(check bool) "capped" true (Rz_aspath.Regex_nfa.is_capped nfa);
    Alcotest.(check int) "no states allocated" 0 (Rz_aspath.Regex_nfa.state_count nfa);
    Alcotest.(check bool) "counter fired" true (Obs.Counter.get c > 0);
    (* conservative abstain: a capped matcher admits nothing *)
    Alcotest.(check bool) "matches nothing" false
      (Rz_aspath.Regex_nfa.matches nfa [| 2 |])

let test_regex_estimate_sane () =
  (* ordinary patterns stay far under the cap and still compile *)
  List.iter
    (fun s ->
      match Rz_aspath.Regex_parse.parse s with
      | Error e -> Alcotest.fail (s ^ ": " ^ e)
      | Ok ast ->
        Alcotest.(check bool) (s ^ " under budget") true
          (Rz_aspath.Regex_ast.state_estimate ast <= 1000);
        Alcotest.(check bool) (s ^ " compiles") true
          (not (Rz_aspath.Regex_nfa.is_capped (Rz_aspath.Regex_nfa.compile ast))))
    [ "^AS1+$"; "AS1 AS2* [AS3 AS4]"; "^AS-FOO{1,9}$"; "(AS1|AS2){2,4} AS5~*" ]

(* ---- snapshot cache under corruption ---- *)

(* The snapshot loader is a parser for hostile bytes like any other:
   flipped bytes, truncation, version skew and trailing garbage must all
   reject (counted on snapshot.rejects), and the cached-ingest path must
   fall back to parsing — wrong data is never served. *)

let snapshot_ir_and_digest =
  lazy
    (let dumps = [ ("TEST", sample_dump) ] in
     let ir = Rz_ingest.Ingest.ingest_sequential dumps in
     (dumps, ir, Rz_ingest.Ingest.dumps_digest dumps))

let with_snapshot_bytes bytes f =
  let path = Filename.temp_file "rz_fault_snapshot" ".snap" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc;
  f path

let count_rejects body =
  Obs.enable ();
  Obs.reset ();
  let c = Obs.Counter.make "snapshot.rejects" in
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) @@ fun () ->
  body ();
  Obs.Counter.get c

let test_snapshot_flipped_bytes_rejected () =
  let _, ir, digest = Lazy.force snapshot_ir_and_digest in
  let clean = Rz_ir.Ir_snapshot.encode ~input_digest:digest ir in
  let n = String.length clean in
  (* one flip in every region: magic, version, digest, section framing,
     payload, checksum, last byte *)
  let positions = [ 0; 9; 14; 30; n / 3; n / 2; (2 * n) / 3; n - 1 ] in
  let rejected =
    count_rejects (fun () ->
        List.iter
          (fun i ->
            let b = Bytes.of_string clean in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
            with_snapshot_bytes (Bytes.to_string b) @@ fun path ->
            match Rz_ir.Ir_snapshot.load path with
            | Ok _ -> Alcotest.failf "flip at byte %d silently loaded" i
            | Error _ -> ())
          positions)
  in
  Alcotest.(check int) "every flip counted a reject" (List.length positions) rejected

let test_snapshot_truncation_rejected () =
  let _, ir, digest = Lazy.force snapshot_ir_and_digest in
  let clean = Rz_ir.Ir_snapshot.encode ~input_digest:digest ir in
  let n = String.length clean in
  let lengths = [ 0; 4; n / 4; n / 2; n - 1 ] in
  let rejected =
    count_rejects (fun () ->
        List.iter
          (fun len ->
            with_snapshot_bytes (String.sub clean 0 len) @@ fun path ->
            match Rz_ir.Ir_snapshot.load path with
            | Ok _ -> Alcotest.failf "truncation to %d bytes silently loaded" len
            | Error _ -> ())
          lengths)
  in
  Alcotest.(check bool) "every truncation counted" true (rejected >= List.length lengths);
  (* trailing garbage is rejected too: a snapshot is exactly its frame *)
  let garbage =
    count_rejects (fun () ->
        with_snapshot_bytes (clean ^ "extra") @@ fun path ->
        match Rz_ir.Ir_snapshot.load path with
        | Ok _ -> Alcotest.fail "trailing garbage silently loaded"
        | Error _ -> ())
  in
  Alcotest.(check bool) "garbage counted" true (garbage >= 1)

let test_snapshot_version_bump_rejected () =
  (* a future format version must reject even with valid framing: the
     version field is bytes 8..11 (big-endian) after the 8-byte magic *)
  let _, ir, digest = Lazy.force snapshot_ir_and_digest in
  let clean = Rz_ir.Ir_snapshot.encode ~input_digest:digest ir in
  let b = Bytes.of_string clean in
  Bytes.set b 11 (Char.chr (Rz_ir.Ir_snapshot.version + 1));
  let rejected =
    count_rejects (fun () ->
        with_snapshot_bytes (Bytes.to_string b) @@ fun path ->
        match Rz_ir.Ir_snapshot.load path with
        | Ok _ -> Alcotest.fail "version bump silently loaded"
        | Error e ->
          Alcotest.(check bool) "reason names the version" true
            (Rz_util.Strings.split_on_string ~sep:"version" e |> List.length > 1))
  in
  Alcotest.(check int) "reject counted" 1 rejected

let test_snapshot_corrupt_fallback_parses () =
  (* cached ingest over a corrupt snapshot: reject + miss, then reparse
     and rewrite; the result is the oracle IR and the rewritten file is
     valid again *)
  let dumps, ir, digest = Lazy.force snapshot_ir_and_digest in
  let clean = Rz_ir.Ir_snapshot.encode ~input_digest:digest ir in
  let b = Bytes.of_string clean in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x40));
  with_snapshot_bytes (Bytes.to_string b) @@ fun path ->
  Obs.enable ();
  Obs.reset ();
  let rejects = Obs.Counter.make "snapshot.rejects" in
  let misses = Obs.Counter.make "snapshot.misses" in
  let hits = Obs.Counter.make "snapshot.hits" in
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) @@ fun () ->
  let got = Rz_ingest.Ingest.ingest_cached ~snapshot:path dumps in
  Alcotest.(check int) "corrupt file rejected" 1 (Obs.Counter.get rejects);
  Alcotest.(check int) "counted as a miss" 1 (Obs.Counter.get misses);
  Alcotest.(check bool) "fallback reproduces the oracle" true
    (String.equal
       (Rz_ir.Ir_json.export_string got)
       (Rz_ir.Ir_json.export_string ir));
  let again = Rz_ingest.Ingest.ingest_cached ~snapshot:path dumps in
  Alcotest.(check int) "rewritten snapshot hits" 1 (Obs.Counter.get hits);
  ignore again

(* ---- journal parser hardening (table-driven) ---- *)

(* Each case: journal text, expected accepted count, expected rejected
   count, and a substring every rejection reason must mention. *)
let journal_cases =
  [ ( "clean interleaved announce/withdraw, same prefix",
      "1 A 192.0.2.0/24|65001 65002\n\
       2 W 192.0.2.0/24|65001\n\
       3 A 192.0.2.0/24|65001 65002\n",
      3, 0, "" );
    ( "truncated event line",
      "1 A 192.0.2.0/24|65001 65002\n2 E autnum AS65001\n",
      1, 1, "truncated" );
    ( "missing rule text",
      "1 E autnum AS65001 add-import\n",
      0, 1, "rule text" );
    ( "NUL byte rejected",
      "1 A 192.0.2.0/24|65001 65002\n2 A 198.51.100.0/24|65\0001 65002\n",
      1, 1, "NUL" );
    ( "out-of-order sequence rejected",
      "2 A 192.0.2.0/24|65001 65002\n\
       1 A 198.51.100.0/24|65001 65002\n\
       3 W 192.0.2.0/24|65001\n",
      2, 1, "out-of-order" );
    ( "duplicate sequence rejected",
      "1 A 192.0.2.0/24|65001 65002\n1 W 192.0.2.0/24|65001\n",
      1, 1, "out-of-order" );
    ( "bad prefix rejected, parse continues",
      "1 A not-a-prefix|65001 65002\n2 W 192.0.2.0/24|65001\n",
      1, 1, "" );
    ( "unknown event kind rejected",
      "1 Q 192.0.2.0/24|65001\n",
      0, 1, "unknown event kind" );
    ( "bare sequence number rejected",
      "7\n",
      0, 1, "truncated" ) ]

let test_journal_parser_table () =
  Obs.enable ();
  Obs.reset ();
  let c = Obs.Counter.make "stream.journal_rejected" in
  let total_rejected =
    List.fold_left
      (fun acc (name, text, want_ok, want_bad, needle) ->
        let items, errors = Rz_routegen.Events.parse text in
        Alcotest.(check int) (name ^ ": accepted") want_ok (List.length items);
        Alcotest.(check int) (name ^ ": rejected") want_bad (List.length errors);
        if needle <> "" then
          List.iter
            (fun (lineno, reason) ->
              let found =
                let nl = String.length needle and rl = String.length reason in
                let rec scan i = i + nl <= rl && (String.sub reason i nl = needle || scan (i + 1)) in
                scan 0
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s: line %d reason mentions %S (got %S)" name
                   lineno needle reason)
                true found)
            errors;
        acc + want_bad)
      0 journal_cases
  in
  Alcotest.(check int) "every rejection counted on stream.journal_rejected"
    total_rejected (Obs.Counter.get c);
  Obs.disable ()

(* ---- hostile query corpus through the service dispatch ---- *)

let query_corpus_files =
  [ "query_truncated.txt"; "query_pipelined_garbage.txt"; "query_slowloris.txt" ]

let test_query_corpus_rate_one_drill () =
  (* the serve-side analogue of the chaos drills: the hostile query
     corpus — raw, and corrupted at rate 1.0 under several seeds — goes
     line by line through the shared dispatch path. The keep-going
     contract: every line gets a rendered protocol response, nothing
     raises, and the guards account for what they shed. *)
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) @@ fun () ->
  let c_total = Obs.Counter.make "serve.queries_total" in
  let c_rejected = Obs.Counter.make "serve.queries_rejected" in
  let db = Db.of_dumps [ ("TEST", sample_dump) ] in
  let corpus =
    String.concat "\n" (List.map (fun f -> slurp (fixture f)) query_corpus_files)
  in
  let dispatched = ref 0 in
  let drive text =
    List.iter
      (fun line ->
        incr dispatched;
        let resp = Rz_serve.Serve.dispatch db line in
        Alcotest.(check bool) "response renders" true
          (String.length (Rz_irr.Irrd_query.render resp) >= 0))
      (String.split_on_char '\n' text)
  in
  drive corpus;
  List.iter
    (fun seed ->
      let p = Fault.plan ~seed ~rate:1.0 () in
      let corrupted, report = Fault.corrupt_dump p corpus in
      Alcotest.(check bool) "rate 1.0 injected faults" true
        (Fault.total_faults report > 0);
      drive corrupted)
    [ 1; 2; 3 ];
  Alcotest.(check int) "every line dispatched and counted" !dispatched
    (Obs.Counter.get c_total);
  (* the raw corpus alone carries a NUL-injected line *)
  Alcotest.(check bool) "guards fired" true (Obs.Counter.get c_rejected > 0)

let suite =
  [ Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "rate 0 identity" `Quick test_rate_zero_identity;
    Alcotest.test_case "kind names roundtrip" `Quick test_kind_names_roundtrip;
    Alcotest.test_case "every kind applies" `Quick test_every_kind_applies;
    Alcotest.test_case "corrupted parse never raises" `Quick test_parse_corrupted_never_raises;
    Alcotest.test_case "oversized line dropped" `Quick test_reader_oversized_line_dropped;
    Alcotest.test_case "error budget" `Quick test_reader_error_budget;
    Alcotest.test_case "hostile roa fixtures" `Quick test_hostile_roa_fixtures;
    Alcotest.test_case "roa corruption recovery" `Quick test_roa_corruption_recovery;
    Alcotest.test_case "deep bomb truncates" `Quick test_deep_bomb_truncates;
    Alcotest.test_case "deep bomb overshoots cap" `Quick test_deep_bomb_depth_relationship;
    Alcotest.test_case "cycle bomb detected" `Quick test_cycle_bomb_detected;
    Alcotest.test_case "clean sets unaffected" `Quick test_clean_sets_unaffected;
    Alcotest.test_case "regex bomb capped" `Quick test_regex_bomb_capped;
    Alcotest.test_case "regex estimate sane" `Quick test_regex_estimate_sane;
    Alcotest.test_case "snapshot flips rejected" `Quick test_snapshot_flipped_bytes_rejected;
    Alcotest.test_case "snapshot truncation rejected" `Quick test_snapshot_truncation_rejected;
    Alcotest.test_case "snapshot version bump rejected" `Quick
      test_snapshot_version_bump_rejected;
    Alcotest.test_case "snapshot corrupt fallback" `Quick test_snapshot_corrupt_fallback_parses;
    Alcotest.test_case "journal parser table" `Quick test_journal_parser_table;
    Alcotest.test_case "query corpus rate-1.0 drill" `Quick
      test_query_corpus_rate_one_drill ]
