(* Tests for rz_rpki (ROV + ROA generation + ASPA), the RPSL x RPKI
   agreement matrix, and the anomaly injection workload. *)
module Roa = Rz_rpki.Roa
module Roagen = Rz_rpki.Roagen
module Aspa = Rz_rpki.Aspa
module Cross = Rz_stats.Rpki_cross
module Anomaly = Rz_routegen.Anomaly
module Gen = Rz_topology.Gen
module Prefix = Rz_net.Prefix
module Json = Rz_json.Json

let p = Rz_net.Prefix.of_string_exn

(* ---------------- ROV ---------------- *)

let roa_table () =
  let t = Roa.create () in
  Roa.add t { Roa.prefix = p "192.0.2.0/24"; max_length = 24; origin = 65001 };
  Roa.add t { Roa.prefix = p "198.51.0.0/16"; max_length = 20; origin = 65002 };
  t

let check_state name expected got =
  Alcotest.(check string) name (Roa.state_to_string expected) (Roa.state_to_string got)

let test_rov_valid () =
  let t = roa_table () in
  check_state "exact match" Roa.Valid (Roa.validate t (p "192.0.2.0/24") 65001);
  check_state "within maxLength" Roa.Valid (Roa.validate t (p "198.51.16.0/20") 65002)

let test_rov_invalid () =
  let t = roa_table () in
  check_state "wrong origin" Roa.Invalid_origin (Roa.validate t (p "192.0.2.0/24") 64999);
  check_state "too specific" Roa.Invalid_length (Roa.validate t (p "198.51.100.0/24") 65002);
  check_state "hijacked subprefix" Roa.Invalid_origin
    (Roa.validate t (p "192.0.2.128/25") 64999)

let test_rov_not_found () =
  let t = roa_table () in
  check_state "uncovered space" Roa.Not_found (Roa.validate t (p "203.0.113.0/24") 65001)

(* The four states pinned one-by-one: the refined RFC 6811 outcomes the
   agreement matrix columns are built on. *)
let test_rov_four_states () =
  let t = roa_table () in
  check_state "valid" Roa.Valid (Roa.validate t (p "192.0.2.0/24") 65001);
  check_state "invalid-origin" Roa.Invalid_origin
    (Roa.validate t (p "198.51.16.0/20") 65099);
  (* /25 under a maxLength-24 ROA by the right origin: only length fails *)
  check_state "invalid-length" Roa.Invalid_length
    (Roa.validate t (p "192.0.2.0/25") 65001);
  check_state "not-found" Roa.Not_found (Roa.validate t (p "2001:db8::/32") 65001);
  Alcotest.(check bool) "is_invalid origin" true (Roa.is_invalid Roa.Invalid_origin);
  Alcotest.(check bool) "is_invalid length" true (Roa.is_invalid Roa.Invalid_length);
  Alcotest.(check bool) "is_invalid valid" false (Roa.is_invalid Roa.Valid);
  Alcotest.(check string) "coarse invalid-length" "invalid" (Roa.coarse Roa.Invalid_length)

let test_rov_valid_beats_invalid () =
  (* Valid wins over a competing covering ROA that would be invalid, and a
     matching-origin cover makes length the deciding failure. *)
  let t = roa_table () in
  Roa.add t { Roa.prefix = p "192.0.2.0/24"; max_length = 24; origin = 64999 };
  check_state "either origin valid" Roa.Valid (Roa.validate t (p "192.0.2.0/24") 64999);
  Alcotest.(check int) "size" 3 (Roa.size t)

let small_topo =
  lazy (Gen.generate { Gen.default_params with n_tier1 = 3; n_mid = 20; n_stub = 60 })

let test_rov_of_topology () =
  let topo = Lazy.force small_topo in
  let full = Roagen.of_topology ~adoption:1.0 topo in
  let none = Roagen.of_topology ~adoption:0.0 topo in
  Alcotest.(check int) "no adoption -> empty" 0 (Roa.size none);
  Alcotest.(check bool) "full adoption covers" true (Roa.size full > 100);
  (* ground truth validates *)
  let asn = topo.ases.(10) in
  List.iter
    (fun prefix ->
      check_state "own announcement valid" Roa.Valid (Roa.validate full prefix asn);
      Alcotest.(check bool) "foreign origin invalid" true
        (Roa.is_invalid (Roa.validate full prefix (asn + 1))))
    (Gen.prefixes_of topo asn)

(* ---------------- ROV trie vs. brute-force oracle ---------------- *)

(* Linear-scan reimplementation of RFC 6811 with the same precedence as
   Roa.validate, over a plain list instead of the trie. *)
let oracle_validate roas prefix origin =
  let len = prefix.Prefix.len in
  let covering = List.filter (fun r -> Prefix.contains r.Roa.prefix prefix) roas in
  if covering = [] then Roa.Not_found
  else if
    List.exists (fun r -> r.Roa.origin = origin && len <= r.Roa.max_length) covering
  then Roa.Valid
  else if List.exists (fun r -> r.Roa.origin = origin) covering then Roa.Invalid_length
  else Roa.Invalid_origin

(* Random prefixes biased toward the edge lengths (/0, /32, /128) and
   shared high bits, so covering relations actually occur. *)
let prefix_gen =
  let open QCheck.Gen in
  let v4 =
    let* len = oneofl [ 0; 1; 2; 8; 15; 16; 24; 31; 32 ] in
    let* a = int_bound 0xFF in
    (* keep the top byte in a tiny pool so prefixes nest *)
    let* top = oneofl [ 0x0A; 0x0B ] in
    return (Prefix.v4 ((top lsl 24) lor (a lsl 8)) len)
  in
  let v6 =
    let* len = oneofl [ 0; 1; 32; 48; 64; 96; 127; 128 ] in
    let* hi = oneofl [ 0x20010DB8_00000000L; 0x20010DB8_00000001L ] in
    let* lo = oneofl [ 0L; 1L; 0x8000000000000000L ] in
    return (Prefix.v6 (hi, lo) len)
  in
  QCheck.Gen.oneof [ v4; v6 ]

let roa_gen =
  let open QCheck.Gen in
  let* prefix = prefix_gen in
  let* slack = int_bound (Prefix.max_len prefix - prefix.Prefix.len) in
  let* origin = int_range 64496 64500 in
  return { Roa.prefix; max_length = prefix.Prefix.len + slack; origin }

let rov_oracle_case =
  let gen =
    QCheck.Gen.(
      triple (list_size (int_bound 8) roa_gen) prefix_gen (int_range 64496 64500))
  in
  QCheck.Test.make ~name:"trie ROV = linear-scan ROV" ~count:1000 (QCheck.make gen)
    (fun (roas, prefix, origin) ->
      let table = Roa.of_list roas in
      Roa.validate table prefix origin = oracle_validate roas prefix origin)

let test_rov_oracle_edges () =
  (* the edge lengths pinned deterministically on top of the random sweep *)
  let roas =
    [ { Roa.prefix = p "0.0.0.0/0"; max_length = 8; origin = 64496 };
      { Roa.prefix = p "10.0.0.0/8"; max_length = 32; origin = 64497 };
      { Roa.prefix = p "::/0"; max_length = 64; origin = 64498 } ]
  in
  let table = Roa.of_list roas in
  List.iter
    (fun (prefix, origin) ->
      check_state
        (Printf.sprintf "oracle at %s" (Prefix.to_string prefix))
        (oracle_validate roas prefix origin)
        (Roa.validate table prefix origin))
    [ (p "0.0.0.0/0", 64496); (p "10.1.2.3/32", 64497); (p "10.1.2.3/32", 64496);
      (p "10.0.0.0/8", 64496); (p "::/0", 64498);
      (p "2001:db8::1/128", 64498); (p "2001:db8::/64", 64498) ]

(* ---------------- ROA generation ---------------- *)

let test_roagen_deterministic () =
  let topo = Lazy.force small_topo in
  let a = Roagen.generate topo and b = Roagen.generate topo in
  Alcotest.(check bool) "same config, same ROAs" true
    (Roa.render a.roas = Roa.render b.roas);
  let c = Roagen.generate ~config:{ Roagen.default with seed = 8 } topo in
  Alcotest.(check bool) "different seed, different ROAs" true
    (Roa.render a.roas <> Roa.render c.roas)

let test_roagen_misconfigurations () =
  let topo = Lazy.force small_topo in
  let result =
    Roagen.generate
      ~config:
        { Roagen.seed = 11; adoption = 1.0; wrong_maxlen_prob = 0.2;
          stale_origin_prob = 0.2; hostile_covering_prob = 0.1 }
      topo
  in
  let s = result.stats in
  Alcotest.(check bool) "each kind generated" true
    (s.n_clean > 0 && s.n_wrong_maxlen > 0 && s.n_stale > 0 && s.n_hostile > 0);
  Alcotest.(check int) "stats account for every ROA"
    (List.length result.roas)
    (s.n_clean + s.n_wrong_maxlen + s.n_stale + s.n_hostile);
  (* under only-misconfigured signing, ground-truth announcements must
     validate invalid, never valid *)
  let bad =
    Roa.of_list
      (Roagen.generate
         ~config:
           { Roagen.seed = 12; adoption = 1.0; wrong_maxlen_prob = 1.0;
             stale_origin_prob = 0.0; hostile_covering_prob = 0.0 }
         topo)
        .roas
  in
  Array.iter
    (fun asn ->
      List.iter
        (fun prefix ->
          if prefix.Prefix.len >= 2 then
            check_state "wrong maxLength invalidates the signer" Roa.Invalid_length
              (Roa.validate bad prefix asn))
        (Gen.prefixes_of topo asn))
    topo.ases

let test_roa_render_round_trip () =
  let topo = Lazy.force small_topo in
  let result = Roagen.generate topo in
  let parsed = Roa.parse_string (Roa.render result.roas) in
  Alcotest.(check int) "no rejects on rendered output" 0 parsed.n_rejected;
  (* duplicates collapse on load; everything else survives byte-for-byte *)
  let dedup lines =
    List.sort_uniq compare (List.map (fun roa -> Roa.render [ roa ]) lines)
  in
  Alcotest.(check (list string)) "round trip"
    (dedup result.roas) (dedup parsed.roas);
  Alcotest.(check int) "loaded = distinct" (List.length (dedup result.roas)) parsed.loaded

(* ---------------- RPSL x RPKI agreement matrix ---------------- *)

let test_cross_matrix_counts () =
  let m = Cross.create () in
  Cross.add m ~rpsl:"verified" Roa.Valid;
  Cross.add m ~rpsl:"verified" Roa.Invalid_origin;
  Cross.add m ~rpsl:"verified" Roa.Invalid_length;
  Cross.add m ~rpsl:"unrecorded" Roa.Not_found;
  Cross.add m ~rpsl:"unrecorded" Roa.Valid;
  Cross.add m ~rpsl:"unverified" Roa.Invalid_origin;
  Cross.add m ~rpsl:"skipped" Roa.Valid;
  Cross.add m ~rpsl:"excluded" Roa.Valid;
  Cross.add_no_origin m;
  Alcotest.(check int) "cell" 1 (Cross.cell m ~rpsl:"verified" ~rpki:"invalid-origin");
  Alcotest.(check int) "total" 8 (Cross.total m);
  Alcotest.(check int) "classified excludes excluded row" 7 (Cross.classified m);
  (* agree: verified x valid, unrecorded x not-found, unverified x invalid *)
  Alcotest.(check int) "agree" 3 (Cross.agree m);
  Alcotest.(check int) "verified but invalid" 2 (Cross.verified_but_rpki_invalid m);
  Alcotest.(check int) "unrecorded but valid" 1 (Cross.unrecorded_but_rpki_valid m);
  Alcotest.(check int) "no origin" 1 (Cross.n_no_origin m);
  Alcotest.check_raises "unknown class rejected"
    (Invalid_argument "Rpki_cross: unknown RPSL class \"bogus\"") (fun () ->
      Cross.add m ~rpsl:"bogus" Roa.Valid)

let test_cross_json_round_trip () =
  let m = Cross.create () in
  Cross.add m ~rpsl:"verified" Roa.Valid;
  Cross.add m ~rpsl:"relaxed" Roa.Invalid_length;
  Cross.add_no_origin m;
  let json = Cross.to_json m in
  (* a baseline file is the rendered text, read back *)
  (match Json.of_string (Json.to_string json) with
   | Error e -> Alcotest.failf "re-parse: %s" e
   | Ok back -> Alcotest.(check bool) "round trip" true (Json.equal json back))

let test_cross_validate_pipeline () =
  let world =
    Rpslyzer.Pipeline.build_synthetic
      ~topo_params:
        { Gen.default_params with seed = 3; n_tier1 = 3; n_mid = 12; n_stub = 30 }
      ()
  in
  let roagen = Roagen.generate world.topo in
  let m = Rpslyzer.Pipeline.cross_validate world (Roa.of_list roagen.roas) in
  let n_routes =
    List.fold_left
      (fun acc (d : Rz_bgp.Table_dump.t) -> acc + List.length d.routes)
      0 world.table_dumps
  in
  Alcotest.(check int) "every route lands somewhere" n_routes
    (Cross.total m + Cross.n_no_origin m);
  Alcotest.(check bool) "matrix is populated" true (Cross.classified m > 0);
  Alcotest.(check bool) "agreement bounded" true
    (Cross.agree m <= Cross.classified m)

(* ---------------- ASPA ---------------- *)

(* topology: 1 -- 2 tier1 peers; 1 > 3, 2 > 4 (providers); 3 > 5, 4 > 6 *)
let aspa_full () =
  let t = Aspa.create () in
  Aspa.attest t ~customer:3 ~providers:[ 1 ];
  Aspa.attest t ~customer:4 ~providers:[ 2 ];
  Aspa.attest t ~customer:5 ~providers:[ 3 ];
  Aspa.attest t ~customer:6 ~providers:[ 4 ];
  t

let aspa_result =
  Alcotest.testable
    (fun ppf r ->
      Format.pp_print_string ppf
        (match r with Aspa.Valid -> "valid" | Aspa.Invalid -> "invalid" | Aspa.Unknown -> "unknown"))
    ( = )

let check_aspa name expected got = Alcotest.check aspa_result name expected got

let test_aspa_valid_up_down () =
  let t = aspa_full () in
  (* wire order collector-side first: 6 4 2 | 1 3 5 reversed = origin 5 *)
  check_aspa "valley-free across apex" Aspa.Valid
    (Aspa.verify_path t [| 6; 4; 2; 1; 3; 5 |]);
  check_aspa "pure uphill" Aspa.Valid (Aspa.verify_path t [| 1; 3; 5 |]);
  check_aspa "single AS" Aspa.Valid (Aspa.verify_path t [| 5 |])

let test_aspa_single_suspect_pair_is_unknown () =
  let t = aspa_full () in
  (* origin 6 climbs to 4 (attested), 4-3 has provably-no-authorization in
     both directions — but a single such pair is indistinguishable from a
     lateral peer link at the apex, so the draft (and we) stay Unknown:
     the hop after it (3 -> 1) cannot be proven to climb. *)
  check_aspa "one suspect pair tolerated as apex" Aspa.Unknown
    (Aspa.verify_path t [| 1; 3; 4; 6 |])

let test_aspa_invalid_deep_leak () =
  let t = aspa_full () in
  (* two provably-unauthorized pairs far apart force K + L < N:
     path origin 5, up to 3 (ok), fake hop 3 -> 6 (3 attests [1): NP up;
     6 attests [4]: NP down), then 6 -> 4 up (P), then 4 -> 2 up...
     wire order: [2; 4; 6; 3; 5] -> a = [5;3;6;4;2]:
       pair(5,3)=P up; pair(3,6): up NP; -> K=2
       from top: pair(4,2): down = is 4 provider of 2? 2 no ASPA ->
       plausible; pair(6,4): down = is 6 a provider of 4? 4 attests [2] ->
       NP -> L=2. K+L=4 < N=5 -> Invalid *)
  check_aspa "valley deep in the path" Aspa.Invalid
    (Aspa.verify_path t [| 2; 4; 6; 3; 5 |])

let test_aspa_unknown_without_attestations () =
  let t = Aspa.create () in
  Aspa.attest t ~customer:5 ~providers:[ 3 ];
  (* only one attestation: the rest of the path is unverifiable *)
  check_aspa "partial adoption" Aspa.Unknown (Aspa.verify_path t [| 6; 4; 2; 1; 3; 5 |])

let test_aspa_authorized () =
  let t = aspa_full () in
  Alcotest.(check bool) "provider" true (Aspa.authorized t ~customer:3 ~provider:1 = Aspa.Provider);
  Alcotest.(check bool) "not provider" true
    (Aspa.authorized t ~customer:3 ~provider:2 = Aspa.Not_provider);
  Alcotest.(check bool) "no attestation" true
    (Aspa.authorized t ~customer:1 ~provider:2 = Aspa.No_attestation);
  Alcotest.(check int) "size" 4 (Aspa.size t)

let test_aspa_of_topology_validates_real_routes () =
  let topo = Lazy.force small_topo in
  let aspa = Aspa.of_topology ~adoption:1.0 topo in
  (* real collector routes must never be Invalid under full adoption *)
  let peers = Rz_routegen.Propagate.default_collector_peers topo ~n:3 in
  let dump = List.hd (Rz_routegen.Propagate.collector_dumps topo ~n_collectors:1 ~peers) in
  List.iter
    (fun (r : Rz_bgp.Route.t) ->
      let path = Array.of_list (Rz_bgp.Route.dedup_path r) in
      match Aspa.verify_path aspa path with
      | Aspa.Invalid ->
        Alcotest.failf "legitimate route flagged invalid: %s" (Rz_bgp.Route.to_line r)
      | _ -> ())
    dump.routes

(* ---------------- anomalies ---------------- *)

let test_inject_prefix_hijack () =
  let topo = Lazy.force small_topo in
  let observer = topo.ases.(0) in
  let events = Anomaly.inject topo ~observer ~n:20 Anomaly.Prefix_hijack in
  Alcotest.(check bool) "events produced" true (List.length events > 5);
  List.iter
    (fun (e : Anomaly.event) ->
      (* the observed origin is the attacker, but the prefix belongs to
         the victim *)
      Alcotest.(check (option int)) "origin is attacker" (Some e.attacker)
        (Rz_bgp.Route.origin e.route);
      Alcotest.(check bool) "prefix is the victim's" true
        (List.exists (Rz_net.Prefix.equal e.prefix) (Gen.prefixes_of topo e.victim)))
    events

let test_inject_forged_origin () =
  let topo = Lazy.force small_topo in
  let observer = topo.ases.(0) in
  let events = Anomaly.inject topo ~observer ~n:20 Anomaly.Forged_origin in
  Alcotest.(check bool) "events produced" true (List.length events > 5);
  List.iter
    (fun (e : Anomaly.event) ->
      Alcotest.(check (option int)) "forged origin is the victim" (Some e.victim)
        (Rz_bgp.Route.origin e.route);
      (* the attacker sits adjacent to the forged origin *)
      let path = Rz_bgp.Route.dedup_path e.route in
      let rec last_two = function
        | [ a; b ] -> (a, b)
        | _ :: rest -> last_two rest
        | [] -> Alcotest.fail "path too short"
      in
      let penultimate, last = last_two path in
      Alcotest.(check int) "attacker before origin" e.attacker penultimate;
      Alcotest.(check int) "victim last" e.victim last)
    events

let test_inject_route_leak () =
  let topo = Lazy.force small_topo in
  let observer = topo.ases.(0) in
  let events = Anomaly.inject topo ~observer ~n:20 Anomaly.Route_leak in
  Alcotest.(check bool) "events produced" true (List.length events > 0);
  List.iter
    (fun (e : Anomaly.event) ->
      let path = Rz_bgp.Route.dedup_path e.route in
      Alcotest.(check bool) "attacker on path" true (List.mem e.attacker path);
      Alcotest.(check (option int)) "victim is origin" (Some e.victim)
        (Rz_bgp.Route.origin e.route))
    events

let test_rov_catches_hijacks () =
  let topo = Lazy.force small_topo in
  let observer = topo.ases.(0) in
  let roa = Roagen.of_topology ~adoption:1.0 topo in
  let events = Anomaly.inject topo ~observer ~n:20 Anomaly.Prefix_hijack in
  List.iter
    (fun (e : Anomaly.event) ->
      match Rz_bgp.Route.origin e.route with
      | Some origin ->
        Alcotest.(check bool) "hijack invalid under full ROV" true
          (Roa.is_invalid (Roa.validate roa e.prefix origin))
      | None -> Alcotest.fail "no origin")
    events

let test_rov_misses_forged_origin () =
  (* the known ROV blind spot: the forged origin IS the authorized one *)
  let topo = Lazy.force small_topo in
  let observer = topo.ases.(0) in
  let roa = Roagen.of_topology ~adoption:1.0 topo in
  let events = Anomaly.inject topo ~observer ~n:10 Anomaly.Forged_origin in
  List.iter
    (fun (e : Anomaly.event) ->
      match Rz_bgp.Route.origin e.route with
      | Some origin ->
        check_state "forged origin evades ROV" Roa.Valid (Roa.validate roa e.prefix origin)
      | None -> Alcotest.fail "no origin")
    events

let test_aspa_catches_leaks () =
  let topo = Lazy.force small_topo in
  let observer = topo.ases.(0) in
  let aspa = Aspa.of_topology ~adoption:1.0 topo in
  let events = Anomaly.inject topo ~observer ~n:20 Anomaly.Route_leak in
  let detected =
    List.length
      (List.filter
         (fun (e : Anomaly.event) ->
           Aspa.verify_path aspa (Array.of_list (Rz_bgp.Route.dedup_path e.route))
           = Aspa.Invalid)
         events)
  in
  Alcotest.(check bool)
    (Printf.sprintf "ASPA detects most leaks (%d/%d)" detected (List.length events))
    true
    (List.length events = 0 || float_of_int detected /. float_of_int (List.length events) > 0.5)

let suite =
  [ Alcotest.test_case "rov valid" `Quick test_rov_valid;
    Alcotest.test_case "rov invalid" `Quick test_rov_invalid;
    Alcotest.test_case "rov not-found" `Quick test_rov_not_found;
    Alcotest.test_case "rov four states" `Quick test_rov_four_states;
    Alcotest.test_case "rov competing roas" `Quick test_rov_valid_beats_invalid;
    Alcotest.test_case "rov from topology" `Quick test_rov_of_topology;
    QCheck_alcotest.to_alcotest rov_oracle_case;
    Alcotest.test_case "rov oracle edge lengths" `Quick test_rov_oracle_edges;
    Alcotest.test_case "roagen deterministic" `Quick test_roagen_deterministic;
    Alcotest.test_case "roagen misconfigurations" `Quick test_roagen_misconfigurations;
    Alcotest.test_case "roa render round trip" `Quick test_roa_render_round_trip;
    Alcotest.test_case "cross matrix counts" `Quick test_cross_matrix_counts;
    Alcotest.test_case "cross json round trip" `Quick test_cross_json_round_trip;
    Alcotest.test_case "cross validate pipeline" `Quick test_cross_validate_pipeline;
    Alcotest.test_case "aspa valid paths" `Quick test_aspa_valid_up_down;
    Alcotest.test_case "aspa apex ambiguity" `Quick test_aspa_single_suspect_pair_is_unknown;
    Alcotest.test_case "aspa deep valley" `Quick test_aspa_invalid_deep_leak;
    Alcotest.test_case "aspa partial adoption" `Quick test_aspa_unknown_without_attestations;
    Alcotest.test_case "aspa authorized" `Quick test_aspa_authorized;
    Alcotest.test_case "aspa no false invalids" `Quick test_aspa_of_topology_validates_real_routes;
    Alcotest.test_case "inject prefix hijack" `Quick test_inject_prefix_hijack;
    Alcotest.test_case "inject forged origin" `Quick test_inject_forged_origin;
    Alcotest.test_case "inject route leak" `Quick test_inject_route_leak;
    Alcotest.test_case "rov catches hijacks" `Quick test_rov_catches_hijacks;
    Alcotest.test_case "rov misses forged origins" `Quick test_rov_misses_forged_origin;
    Alcotest.test_case "aspa catches leaks" `Quick test_aspa_catches_leaks ]
