(* Differential and golden tests for the ingestion layer (Rz_ingest) and
   the IR snapshot cache (Rz_ir.Ir_snapshot).

   The contract under test is byte-identity: for any input,
   [Ingest.ingest] (scanner + memoized rule and member-list parsers)
   must produce an IR whose Ir_json export equals the sequential
   oracle's ([Ingest.ingest_sequential], i.e. the [Db.of_dumps] lowering
   loop) — including the error list and the
   inter-IRR first-definition-wins winners. Snapshots must round-trip
   byte-stably and a valid-looking-but-stale snapshot must miss, never
   serve wrong data. The on-disk fixture corpus exercises the reader on
   real files: every persona, CRLF endings, continuation folding, and
   injected syntax errors. *)

module Ingest = Rz_ingest.Ingest
module Reader = Rz_rpsl.Reader
module Snapshot = Rz_ir.Ir_snapshot
module Obs = Rz_obs.Obs
module Gen = QCheck.Gen

let export ir = Rz_ir.Ir_json.export_string ir

let world_dumps =
  lazy
    (let topo_params =
       { Rz_topology.Gen.default_params with seed = 21; n_tier1 = 2; n_mid = 10; n_stub = 35 }
     in
     (Rpslyzer.Pipeline.build_synthetic ~topo_params ()).dumps)

(* ---- differential parity: one-pass ingest vs the sequential oracle ---- *)

let test_parity_clean_world () =
  let dumps = Lazy.force world_dumps in
  Alcotest.(check int) "13-IRR world" 13 (List.length dumps);
  let oracle = export (Ingest.ingest_sequential dumps) in
  Alcotest.(check bool) "byte-identical" true
    (String.equal (export (Ingest.ingest dumps)) oracle);
  Alcotest.(check bool) "deprecated ~domains:1 is the same pass" true
    (String.equal (export (Ingest.ingest ~domains:1 dumps)) oracle);
  Alcotest.check_raises "any other ~domains is rejected"
    (Invalid_argument "Ingest: ~domains:4 (deprecated; only 1 is accepted)")
    (fun () -> ignore (Ingest.ingest ~domains:4 dumps))

let test_parity_error_lists () =
  (* structural parity of the lowering-error list, not just its JSON *)
  let plan = Rz_fault.Fault.plan ~seed:31 ~rate:0.25 () in
  let dumps, _ = Rz_fault.Fault.corrupt_dumps plan (Lazy.force world_dumps) in
  let seq = Ingest.ingest_sequential dumps in
  let got = Ingest.ingest dumps in
  Alcotest.(check bool) "corruption produced lowering errors" true (seq.errors <> []);
  Alcotest.(check bool) "error lists structurally equal" true (got.errors = seq.errors);
  (* interned ids are deterministic (first-seen order matches the
     sequential lowering), so raw route records — ids included — must
     agree, and so must the strings the ids resolve to *)
  let witness (ir : Rz_ir.Ir.t) =
    Rz_ir.Ir.fold_routes ir ~init:[] ~f:(fun acc r ->
        ( r,
          Rz_ir.Ir.route_member_of ir r,
          Rz_ir.Ir.route_mnt_by ir r,
          Rz_ir.Ir.route_source ir r )
        :: acc)
  in
  Alcotest.(check bool) "route lists structurally equal" true
    (witness got = witness seq)

let gen_fault_plan =
  Gen.map2
    (fun seed rate -> Rz_fault.Fault.plan ~seed ~rate:(float_of_int rate /. 100.) ())
    (Gen.int_range 0 10_000) (Gen.int_range 0 50)

let parity_under_corruption =
  QCheck.Test.make ~count:12 ~name:"one-pass = sequential on corrupted worlds"
    (QCheck.make gen_fault_plan) (fun plan ->
      let dumps, _ = Rz_fault.Fault.corrupt_dumps plan (Lazy.force world_dumps) in
      String.equal
        (export (Ingest.ingest_sequential dumps))
        (export (Ingest.ingest dumps)))

(* ---- merge priority: inter-IRR first-definition-wins ---- *)

let test_merge_priority_winners () =
  let dump_a =
    "aut-num: AS64500\nas-name: FROM-ALPHA\nimport: from AS64501 accept ANY\n\n\
     as-set: AS-DUP\nmembers: AS64500\n\n\
     filter-set: FLTR-DUP\nfilter: <^AS64500[*^+>\n" (* unlowerable: key stays open *)
  in
  let dump_b =
    "aut-num: AS64500\nas-name: FROM-BETA\n\n\
     as-set: AS-DUP\nmembers: AS64501, AS64502\n\n\
     filter-set: FLTR-DUP\nfilter: { 192.0.2.0/24 }\n\n\
     route: 192.0.2.0/24\norigin: AS64500\n"
  in
  let dumps = [ ("ALPHA", dump_a); ("BETA", dump_b) ] in
  let check ir tag =
    (match Rz_ir.Ir.find_aut_num ir 64500 with
     | None -> Alcotest.failf "%s: AS64500 missing" tag
     | Some a ->
       Alcotest.(check string) (tag ^ ": first definition wins") "FROM-ALPHA" a.as_name;
       Alcotest.(check string) (tag ^ ": winner source") "ALPHA" a.source);
    (match Rz_ir.Ir.find_as_set ir "AS-DUP" with
     | None -> Alcotest.failf "%s: AS-DUP missing" tag
     | Some s ->
       Alcotest.(check (list int)) (tag ^ ": alpha member list wins") [ 64500 ] s.member_asns);
    (* the unlowerable ALPHA filter-set left its key unclaimed, so the
       later lowerable BETA definition is admitted *)
    match Rz_ir.Ir.find_filter_set ir "FLTR-DUP" with
    | None -> Alcotest.failf "%s: FLTR-DUP missing" tag
    | Some f -> Alcotest.(check string) (tag ^ ": lowerable definition wins") "BETA" f.source
  in
  let seq = Ingest.ingest_sequential dumps in
  let one_pass = Ingest.ingest dumps in
  check seq "seq";
  check one_pass "one-pass";
  Alcotest.(check bool) "byte-identical" true (String.equal (export seq) (export one_pass))

(* ---- scanner vs reference parser ---- *)

let result_fingerprint (r : Reader.result_t) =
  ( List.map
      (fun (o : Rz_rpsl.Obj.t) ->
        (o.cls, o.name, o.line, List.map (fun (a : Rz_rpsl.Attr.t) -> (a.key, a.value)) o.attrs))
      r.objects,
    List.map (fun (e : Reader.error) -> (e.line, e.reason)) r.errors )

let scan_equals_parse =
  QCheck.Test.make ~count:20 ~name:"scan_string = parse_string on corrupted dumps"
    (QCheck.make gen_fault_plan) (fun plan ->
      List.for_all
        (fun (_, text) ->
          let corrupted, _ = Rz_fault.Fault.corrupt_dump plan text in
          result_fingerprint (Reader.scan_string corrupted)
          = result_fingerprint (Reader.parse_string corrupted))
        (Lazy.force world_dumps))

(* ---- memoized rule lowering vs the reference lowering ---- *)

let memo_parser_parity =
  (* generated aut-nums with repeated rule texts (so the memo answers
     most of them), action-bearing peerings and rules that must be
     rejected, such as an action with no value: the end-to-end IR, error
     list included, must not depend on the memo *)
  let gen_rule =
    Gen.map3
      (fun dir (peer, action) (afi, filt) ->
        let attr, kw, verb =
          if dir then ("import", "from", "accept") else ("export", "to", "announce")
        in
        Printf.sprintf "%s: %s%s AS%d %s%s %s" attr afi kw peer action verb filt)
      Gen.bool
      (Gen.pair (Gen.int_range 64500 64505)
         (Gen.oneofl
            [ ""; ""; "action pref=100; "; "action community .= { 65000:1 }; ";
              "action med=10; pref=20; "; "action pref=; " ]))
      (Gen.pair
         (Gen.oneofl [ ""; "afi ipv4.unicast "; "afi ipv6.unicast " ])
         (Gen.oneofl
            [ "ANY"; "AS-FIXTURE"; "AS64501"; "PeerAS"; "RS-TEST";
              "{ 192.0.2.0/24 }"; "AS64501 AND NOT AS64502"; "<^AS64501+$>" ]))
  in
  QCheck.Test.make ~count:60 ~name:"memoized rule lowering = reference lowering"
    (QCheck.make (Gen.list_size (Gen.int_range 1 8) gen_rule))
    (fun rules ->
      let dump =
        "aut-num: AS64499\nas-name: GEN\n" ^ String.concat "\n" rules ^ "\n"
      in
      let dumps = [ ("GEN", dump) ] in
      let seq = Ingest.ingest_sequential dumps and got = Ingest.ingest dumps in
      got.errors = seq.errors && String.equal (export seq) (export got))

(* ---- snapshot cache ---- *)

let with_temp_snapshot f =
  let path = Filename.temp_file "rz_test_snapshot" ".snap" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) @@ fun () ->
  f path

let test_snapshot_roundtrip_bytes () =
  let dumps = Lazy.force world_dumps in
  let ir = Ingest.ingest_sequential dumps in
  let digest = Ingest.dumps_digest dumps in
  let bytes1 = Snapshot.encode ~input_digest:digest ir in
  with_temp_snapshot @@ fun path ->
  Snapshot.save path ~input_digest:digest ir;
  let on_disk =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  Alcotest.(check bool) "save writes exactly encode's bytes" true
    (String.equal bytes1 on_disk);
  match Snapshot.load path with
  | Error e -> Alcotest.failf "load rejected a fresh snapshot: %s" e
  | Ok (d, ir2) ->
    Alcotest.(check bool) "digest round-trips" true (String.equal d digest);
    Alcotest.(check bool) "IR round-trips byte-identically" true
      (String.equal (export ir) (export ir2));
    (* golden stability: save -> load -> re-save is a fixpoint *)
    Alcotest.(check bool) "re-encode is byte-stable" true
      (String.equal bytes1 (Snapshot.encode ~input_digest:d ir2))

let test_snapshot_hit_miss_counters () =
  let dumps = Lazy.force world_dumps in
  with_temp_snapshot @@ fun path ->
  Sys.remove path;
  Obs.enable ();
  Obs.reset ();
  let hits = Obs.Counter.make "snapshot.hits" in
  let misses = Obs.Counter.make "snapshot.misses" in
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) @@ fun () ->
  let cold = Ingest.ingest_cached ~snapshot:path dumps in
  Alcotest.(check int) "first run misses" 1 (Obs.Counter.get misses);
  Alcotest.(check int) "no hit yet" 0 (Obs.Counter.get hits);
  Alcotest.(check bool) "snapshot written" true (Sys.file_exists path);
  let warm = Ingest.ingest_cached ~snapshot:path dumps in
  Alcotest.(check int) "second run hits" 1 (Obs.Counter.get hits);
  Alcotest.(check bool) "hit equals cold IR" true
    (String.equal (export cold) (export warm));
  (* a valid snapshot for different input is stale: miss + rewrite *)
  let other = ("EXTRA", "aut-num: AS64599\nas-name: STALE\n") :: dumps in
  let fresh = Ingest.ingest_cached ~snapshot:path other in
  Alcotest.(check int) "stale snapshot misses" 2 (Obs.Counter.get misses);
  Alcotest.(check bool) "stale miss reparses, never serves old IR" true
    (String.equal (export fresh) (export (Ingest.ingest_sequential other)));
  let warm2 = Ingest.ingest_cached ~snapshot:path other in
  Alcotest.(check int) "rewrite makes the new input hit" 2 (Obs.Counter.get hits);
  ignore warm2

(* ---- on-disk fixture corpus ---- *)

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

(* expectations per fixture: (file, objects, errors, class of first object) *)
let fixture_table =
  [ ("01_autnum_basic.rpsl", 1, 0, "aut-num");
    ("02_autnum_multiprotocol.rpsl", 1, 0, "aut-num");
    ("03_as_set_crlf.rpsl", 2, 0, "as-set");
    ("04_route_set.rpsl", 2, 0, "route-set");
    ("05_routes.rpsl", 3, 0, "route");
    ("06_mntner.rpsl", 1, 0, "mntner");
    ("07_filter_peering_sets.rpsl", 2, 0, "filter-set");
    ("08_inet_rtr.rpsl", 2, 0, "inet-rtr");
    ("09_continuations.rpsl", 1, 0, "aut-num");
    ("10_syntax_error.rpsl", 1, 2, "aut-num") ]

let test_fixture_corpus () =
  List.iter
    (fun (file, n_objects, n_errors, cls) ->
      let r = Reader.parse_file (fixture file) in
      Alcotest.(check int) (file ^ ": object count") n_objects (List.length r.objects);
      Alcotest.(check int) (file ^ ": error count") n_errors (List.length r.errors);
      match r.objects with
      | [] -> Alcotest.failf "%s: no objects parsed" file
      | (o : Rz_rpsl.Obj.t) :: _ -> Alcotest.(check string) (file ^ ": class") cls o.cls)
    fixture_table

let read_fixture file =
  let ic = open_in_bin (fixture file) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_fixture_file_equals_string () =
  (* parse_file, parse_string and scan_string agree on every fixture —
     including the CRLF one, whose \r must vanish in both paths *)
  List.iter
    (fun (file, _, _, _) ->
      let text = read_fixture file in
      let from_file = result_fingerprint (Reader.parse_file (fixture file)) in
      Alcotest.(check bool) (file ^ ": parse_file = parse_string") true
        (from_file = result_fingerprint (Reader.parse_string text));
      Alcotest.(check bool) (file ^ ": parse_file = scan_string") true
        (from_file = result_fingerprint (Reader.scan_string text)))
    fixture_table

let test_fixture_crlf_values_clean () =
  let r = Reader.parse_file (fixture "03_as_set_crlf.rpsl") in
  List.iter
    (fun (o : Rz_rpsl.Obj.t) ->
      List.iter
        (fun (a : Rz_rpsl.Attr.t) ->
          Alcotest.(check bool) (a.key ^ " value carries no CR") false
            (String.contains a.value '\r'))
        o.attrs)
    r.objects;
  match r.objects with
  | (o : Rz_rpsl.Obj.t) :: _ ->
    Alcotest.(check string) "folded member list" "AS64500, AS64510,\nAS64520"
      (Rz_rpsl.Obj.value o "members" |> Option.value ~default:"")
  | [] -> Alcotest.fail "CRLF fixture parsed no objects"

let test_fixture_corpus_ingest_parity () =
  (* the corpus as a 10-IRR world: one-pass = sequential on real files *)
  let dumps = List.map (fun (file, _, _, _) -> (file, read_fixture file)) fixture_table in
  let oracle = export (Ingest.ingest_sequential dumps) in
  Alcotest.(check bool) "fixture world byte-identical" true
    (String.equal oracle (export (Ingest.ingest dumps)))

let test_truncated_file_keeps_partial () =
  (* cut a fixture mid-object (no trailing newline, mid-attribute): every
     whole line parsed before the cut must survive, and the partial
     trailing object must still be flushed *)
  let text = read_fixture "01_autnum_basic.rpsl" in
  let cut =
    match String.index_from_opt text (String.length text / 2) '\n' with
    | Some i -> String.sub text 0 (i + 5) (* ends mid-line *)
    | None -> Alcotest.fail "fixture too small to truncate"
  in
  let path = Filename.temp_file "rz_truncated" ".rpsl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  output_string oc cut;
  close_out oc;
  let r = Reader.parse_file path in
  Alcotest.(check int) "partial object flushed" 1 (List.length r.objects);
  let o = List.hd r.objects in
  Alcotest.(check string) "still the aut-num" "aut-num" o.Rz_rpsl.Obj.cls;
  Alcotest.(check bool) "keeps the attrs before the cut" true
    (List.length o.Rz_rpsl.Obj.attrs >= 4);
  (* and the file path agrees with parsing the truncated bytes directly *)
  Alcotest.(check bool) "truncated file = truncated string" true
    (result_fingerprint r = result_fingerprint (Reader.parse_string cut))

let suite =
  [ Alcotest.test_case "parity on clean world" `Quick test_parity_clean_world;
    Alcotest.test_case "parity of error lists" `Quick test_parity_error_lists;
    QCheck_alcotest.to_alcotest parity_under_corruption;
    Alcotest.test_case "merge priority winners" `Quick test_merge_priority_winners;
    QCheck_alcotest.to_alcotest scan_equals_parse;
    QCheck_alcotest.to_alcotest memo_parser_parity;
    Alcotest.test_case "snapshot round-trip bytes" `Quick test_snapshot_roundtrip_bytes;
    Alcotest.test_case "snapshot hit/miss counters" `Quick test_snapshot_hit_miss_counters;
    Alcotest.test_case "fixture corpus table" `Quick test_fixture_corpus;
    Alcotest.test_case "fixture file = string" `Quick test_fixture_file_equals_string;
    Alcotest.test_case "fixture CRLF clean" `Quick test_fixture_crlf_values_clean;
    Alcotest.test_case "fixture world parity" `Quick test_fixture_corpus_ingest_parity;
    Alcotest.test_case "truncated file keeps partial" `Quick
      test_truncated_file_keeps_partial ]
