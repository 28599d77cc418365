(* Unit tests for rz_verify.Aggregate on hand-built hop reports. *)
module Aggregate = Rz_verify.Aggregate
module Status = Rz_verify.Status
module Report = Rz_verify.Report

let p = Rz_net.Prefix.of_string_exn

let hop direction from_as to_as status items =
  let peering_only =
    List.for_all
      (function Report.Match_remote_as_num _ | Report.Match_remote_as_set _ -> true | _ -> false)
      items
  in
  { Report.direction; from_as; to_as; status; items; attrs = None; peering_only }

let route_report prefix path hops =
  { Report.route = Rz_bgp.Route.make (p prefix) path; hops }

let test_counts_basics () =
  let c = Aggregate.zero_counts () in
  Aggregate.counts_add c Status.Verified;
  Aggregate.counts_add c Status.Verified;
  Aggregate.counts_add c (Status.Unrecorded Status.No_rules);
  Aggregate.counts_add c Status.Unverified;
  Aggregate.counts_add c (Status.Relaxed Status.Export_self);
  Aggregate.counts_add c (Status.Safelisted Status.Uphill);
  Aggregate.counts_add c (Status.Skipped Status.Community_filter);
  Alcotest.(check int) "total" 7 (Aggregate.counts_total c);
  Alcotest.(check (list (pair string int))) "classes"
    [ ("verified", 2); ("skipped", 1); ("unrecorded", 1); ("relaxed", 1);
      ("safelisted", 1); ("unverified", 1) ]
    (Aggregate.counts_classes c)

let test_per_as_attribution () =
  let agg = Aggregate.create () in
  (* one route 3 -> 2 -> 1 (origin 1): export by 1 verified, import by 2
     unverified, export by 2 unrecorded, import by 3 verified *)
  Aggregate.add_route_report agg
    (route_report "192.0.2.0/24" [ 3; 2; 1 ]
       [ hop `Export 1 2 Status.Verified [];
         hop `Import 1 2 Status.Unverified [];
         hop `Export 2 3 (Status.Unrecorded Status.No_rules) [ Report.Unrec Status.No_rules ];
         hop `Import 2 3 Status.Verified [] ]);
  Alcotest.(check int) "1 route" 1 (Aggregate.n_routes agg);
  Alcotest.(check int) "4 hops" 4 (Aggregate.n_hops agg);
  let per_as = Aggregate.per_as_list agg in
  Alcotest.(check int) "3 ases" 3 (List.length per_as);
  (* exports are attributed to from_as; imports to to_as *)
  let _, imports1, exports1 = List.find (fun (a, _, _) -> a = 1) per_as in
  Alcotest.(check int) "AS1 exports verified" 1 exports1.Aggregate.verified;
  Alcotest.(check int) "AS1 no imports" 0 (Aggregate.counts_total imports1);
  let _, imports2, exports2 = List.find (fun (a, _, _) -> a = 2) per_as in
  Alcotest.(check int) "AS2 import unverified" 1 imports2.Aggregate.unverified;
  Alcotest.(check int) "AS2 export unrecorded" 1 exports2.Aggregate.unrecorded;
  let _, imports3, _ = List.find (fun (a, _, _) -> a = 3) per_as in
  Alcotest.(check int) "AS3 import verified" 1 imports3.Aggregate.verified

let test_per_as_summary_pure () =
  let agg = Aggregate.create () in
  Aggregate.add_route_report agg
    (route_report "192.0.2.0/24" [ 2; 1 ]
       [ hop `Export 1 2 Status.Verified []; hop `Import 1 2 Status.Verified [] ]);
  let s = Aggregate.per_as_summary agg in
  Alcotest.(check int) "2 ases" 2 s.n_ases;
  Alcotest.(check int) "both single-status" 2 s.all_same_status;
  Alcotest.(check int) "both all-verified" 2 s.all_verified

let test_per_pair_summary () =
  let agg = Aggregate.create () in
  (* same directed pair twice with different import statuses -> mixed *)
  let add status =
    Aggregate.add_route_report agg
      (route_report "192.0.2.0/24" [ 2; 1 ]
         [ hop `Export 1 2 Status.Verified []; hop `Import 1 2 status [] ])
  in
  add Status.Verified;
  add Status.Unverified;
  let s = Aggregate.per_pair_summary agg in
  Alcotest.(check int) "2 pair-direction entries" 2 s.n_pairs;
  Alcotest.(check (float 1e-9)) "import pair mixed" 0.0 s.single_status_import;
  Alcotest.(check (float 1e-9)) "export pair single" 1.0 s.single_status_export;
  Alcotest.(check int) "one pair with unverified" 1 s.pairs_with_unverified

let test_unverified_peering_fraction () =
  let agg = Aggregate.create () in
  Aggregate.add_route_report agg
    (route_report "192.0.2.0/24" [ 2; 1 ]
       [ hop `Export 1 2 Status.Unverified [ Report.Match_remote_as_num 9 ];
         hop `Import 1 2 Status.Unverified [ Report.Match_filter ] ]);
  let s = Aggregate.per_pair_summary agg in
  (* one of the two unverified hops is peering-only *)
  Alcotest.(check (float 1e-9)) "half peering mismatch" 0.5 s.unverified_peering_mismatch

let test_per_route_summary () =
  let agg = Aggregate.create () in
  (* route A: pure verified; route B: two statuses; route C: three *)
  Aggregate.add_route_report agg
    (route_report "192.0.2.0/24" [ 2; 1 ]
       [ hop `Export 1 2 Status.Verified []; hop `Import 1 2 Status.Verified [] ]);
  Aggregate.add_route_report agg
    (route_report "198.51.100.0/24" [ 2; 1 ]
       [ hop `Export 1 2 Status.Verified []; hop `Import 1 2 Status.Unverified [] ]);
  Aggregate.add_route_report agg
    (route_report "203.0.113.0/24" [ 3; 2; 1 ]
       [ hop `Export 1 2 Status.Verified [];
         hop `Import 1 2 Status.Unverified [];
         hop `Export 2 3 (Status.Unrecorded Status.No_rules) [];
         hop `Import 2 3 Status.Verified [] ]);
  let s = Aggregate.per_route_summary agg in
  Alcotest.(check int) "3 routes" 3 s.n_routes;
  Alcotest.(check (float 1e-6)) "one single" (1. /. 3.) s.single_status;
  Alcotest.(check (float 1e-6)) "one two-status" (1. /. 3.) s.two_statuses;
  Alcotest.(check (float 1e-6)) "one three-status" (1. /. 3.) s.three_plus;
  Alcotest.(check (float 1e-6)) "single verified" (1. /. 3.) s.single_verified

let test_breakdowns () =
  let agg = Aggregate.create () in
  Aggregate.add_route_report agg
    (route_report "192.0.2.0/24" [ 3; 2; 1 ]
       [ hop `Export 1 2 (Status.Unrecorded (Status.No_aut_num 1)) [];
         hop `Import 1 2 (Status.Unrecorded Status.No_rules) [];
         hop `Export 2 3 (Status.Relaxed Status.Export_self) [];
         hop `Import 2 3 (Status.Safelisted Status.Uphill) [] ]);
  let u = Aggregate.unrec_breakdown agg in
  Alcotest.(check int) "no_aut_num AS" 1 u.ases_no_aut_num;
  Alcotest.(check int) "no_rules AS" 1 u.ases_no_rules;
  let sp = Aggregate.special_breakdown agg in
  Alcotest.(check int) "export-self AS" 1 sp.ases_export_self;
  Alcotest.(check int) "uphill AS" 1 sp.ases_uphill;
  Alcotest.(check int) "any special" 2 sp.ases_any_special

let test_unrecorded_attribution_direction () =
  (* the unrecorded AS is the subject: the exporter for exports, the
     importer for imports *)
  let agg = Aggregate.create () in
  Aggregate.add_route_report agg
    (route_report "192.0.2.0/24" [ 2; 1 ]
       [ hop `Export 1 2 (Status.Unrecorded (Status.No_aut_num 1)) [];
         hop `Import 1 2 (Status.Unrecorded (Status.No_aut_num 2)) [] ]);
  let u = Aggregate.unrec_breakdown agg in
  Alcotest.(check int) "both subjects flagged" 2 u.ases_no_aut_num

let suite =
  [ Alcotest.test_case "counts basics" `Quick test_counts_basics;
    Alcotest.test_case "per-AS attribution" `Quick test_per_as_attribution;
    Alcotest.test_case "per-AS summary" `Quick test_per_as_summary_pure;
    Alcotest.test_case "per-pair summary" `Quick test_per_pair_summary;
    Alcotest.test_case "unverified peering fraction" `Quick test_unverified_peering_fraction;
    Alcotest.test_case "per-route summary" `Quick test_per_route_summary;
    Alcotest.test_case "breakdowns" `Quick test_breakdowns;
    Alcotest.test_case "unrecorded attribution" `Quick test_unrecorded_attribution_direction ]
