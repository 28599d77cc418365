(* Tests for rz_synthirr: the generated RPSL parses cleanly, respects the
   configured personas, and reproduces the deliberate anomalies. *)
module Gen = Rz_topology.Gen
module Generate = Rz_synthirr.Generate
module Config = Rz_synthirr.Config
module Db = Rz_irr.Db

let params = { Gen.default_params with n_tier1 = 3; n_mid = 25; n_stub = 80 }
let world = lazy (Generate.generate (Gen.generate params))

let db = lazy (Db.of_dumps (Lazy.force world).dumps)

let test_thirteen_dumps_in_order () =
  let w = Lazy.force world in
  Alcotest.(check (list string)) "names and order" Db.priority_order (List.map fst w.dumps)

let test_dumps_parse () =
  let w = Lazy.force world in
  List.iter
    (fun (irr, text) ->
      let parsed = Rz_rpsl.Reader.parse_string text in
      (* only the deliberately injected errors (all placed in RADB) may
         produce reader-level errors *)
      if irr <> "RADB" then
        Alcotest.(check int) (irr ^ " reader errors") 0 (List.length parsed.errors))
    w.dumps

let test_personas_no_aut_num () =
  let w = Lazy.force world in
  let database = Lazy.force db in
  Hashtbl.iter
    (fun asn (profile : Generate.profile) ->
      match profile.persona with
      | Generate.No_aut_num ->
        Alcotest.(check bool)
          (Printf.sprintf "AS%d absent" asn)
          true
          (Db.find_aut_num database asn = None)
      | _ ->
        Alcotest.(check bool)
          (Printf.sprintf "AS%d present" asn)
          true
          (Db.find_aut_num database asn <> None))
    w.profiles

let test_personas_rule_counts () =
  let w = Lazy.force world in
  let database = Lazy.force db in
  Hashtbl.iter
    (fun asn (profile : Generate.profile) ->
      match (profile.persona, Db.find_aut_num database asn) with
      | Generate.No_rules, Some an ->
        Alcotest.(check int) (Printf.sprintf "AS%d no rules" asn) 0 (Rz_ir.Ir.n_rules an)
      | Generate.Any_any, Some an ->
        Alcotest.(check int) (Printf.sprintf "AS%d any-any" asn) 2 (Rz_ir.Ir.n_rules an)
      | (Generate.Regular | Generate.Only_provider | Generate.Complex), Some an ->
        (* a rule-writing AS may still end up with zero rules when every
           neighbor it covers was dropped (the undeclared-peering knob) *)
        let neighbors = Rz_asrel.Rel_db.neighbors w.topo.rels asn in
        let has_kept_neighbor =
          List.exists (fun n -> not (List.mem n profile.dropped_neighbors)) neighbors
        in
        if has_kept_neighbor && profile.persona <> Generate.Only_provider then
          Alcotest.(check bool) (Printf.sprintf "AS%d has rules" asn) true
            (Rz_ir.Ir.n_rules an > 0)
      | _ -> ())
    w.profiles

let test_lacnic_has_no_rules () =
  let w = Lazy.force world in
  let lacnic = List.assoc "LACNIC" w.dumps in
  let parsed = Rz_rpsl.Reader.parse_string lacnic in
  List.iter
    (fun (o : Rz_rpsl.Obj.t) ->
      if o.cls = "aut-num" then begin
        Alcotest.(check int) "no imports" 0 (List.length (Rz_rpsl.Obj.values o "import"));
        Alcotest.(check int) "no exports" 0 (List.length (Rz_rpsl.Obj.values o "export"))
      end)
    parsed.objects

let test_only_provider_persona_rules () =
  let w = Lazy.force world in
  let database = Lazy.force db in
  let rels = w.topo.rels in
  Hashtbl.iter
    (fun asn (profile : Generate.profile) ->
      if profile.persona = Generate.Only_provider then
        match Db.find_aut_num database asn with
        | Some an ->
          (* every peering in its rules names one of its providers *)
          let providers = Rz_asrel.Rel_db.providers rels asn in
          List.iter
            (fun (pa : Rz_policy.Ast.peering_action) ->
              match pa.peering with
              | Rz_policy.Ast.Peering_spec { as_expr = Rz_policy.Ast.Asn n; _ } ->
                Alcotest.(check bool)
                  (Printf.sprintf "AS%d rule names provider" asn)
                  true (List.mem n providers)
              | _ -> Alcotest.fail "unexpected peering shape")
            (List.concat_map Rz_policy.Ast.rule_peerings (an.imports @ an.exports))
        | None -> ())
    w.profiles

let test_anomaly_objects_present () =
  let database = Lazy.force db in
  let ir = Db.ir database in
  let config = (Lazy.force world).config in
  Alcotest.(check bool) "empty set exists" true (Rz_ir.Ir.find_as_set ir "AS-EMPTY-1" <> None);
  Alcotest.(check bool) "loop set exists" true (Rz_ir.Ir.find_as_set ir "AS-LOOP-1-A" <> None);
  Alcotest.(check bool) "loop detected" true (Db.as_set_has_loop database "AS-LOOP-1-A");
  Alcotest.(check int) "deep chain depth" 6 (Db.as_set_depth database "AS-DEEP-1-1");
  (match Rz_ir.Ir.find_as_set ir "AS-HASANY-1" with
   | Some s -> Alcotest.(check bool) "ANY member flagged" true s.contains_any
   | None -> Alcotest.fail "AS-HASANY-1 missing");
  (* injected syntax errors and invalid names are recorded *)
  let errors = ir.Rz_ir.Ir.errors in
  Alcotest.(check bool) "syntax errors recorded" true
    (List.exists
       (fun (e : Rz_ir.Ir.error) ->
         match e.kind with Rz_ir.Ir.Syntax_error _ -> true | _ -> false)
       errors);
  Alcotest.(check bool) "invalid as-set names recorded" true
    (List.length
       (List.filter (fun (e : Rz_ir.Ir.error) -> e.kind = Rz_ir.Ir.Invalid_as_set_name) errors)
     >= config.Config.n_invalid_set_names)

let test_mbrs_by_ref_cooperative () =
  let database = Lazy.force db in
  Alcotest.(check bool) "cooperative set exists" true (Db.as_set_exists database "AS-COOPERATIVE");
  Alcotest.(check int) "two indirect members" 2
    (Db.Asn_set.cardinal (Db.flatten_as_set database "AS-COOPERATIVE"))

let test_deterministic () =
  let topo = Gen.generate params in
  let w1 = Generate.generate topo and w2 = Generate.generate topo in
  List.iter2
    (fun (n1, t1) (n2, t2) ->
      Alcotest.(check string) "same irr" n1 n2;
      Alcotest.(check string) ("same dump " ^ n1) t1 t2)
    w1.dumps w2.dumps

let test_route_objects_mostly_present () =
  let w = Lazy.force world in
  let database = Lazy.force db in
  let total = ref 0 and covered = ref 0 in
  Array.iter
    (fun asn ->
      if (Hashtbl.find w.profiles asn).persona <> Generate.No_aut_num then
        List.iter
          (fun prefix ->
            incr total;
            if List.mem asn (Db.exact_origins database prefix) then incr covered)
          (Gen.prefixes_of w.topo asn))
    w.topo.ases;
  let fraction = float_of_int !covered /. float_of_int !total in
  Alcotest.(check bool) "most route objects registered" true (fraction > 0.8);
  Alcotest.(check bool) "some are missing (staleness)" true (fraction < 1.0)

let test_config_extremes () =
  (* all-no-aut-num world: dumps still parse, no aut-nums *)
  let config =
    { Config.default with p_no_aut_num = 1.0; p_no_rules = 0.0; p_any_any = 0.0;
      p_complex = 0.0; p_only_provider = 0.0 }
  in
  let topo = Gen.generate { params with n_tier1 = 0; n_mid = 5; n_stub = 10 } in
  let w = Generate.generate ~config topo in
  let database = Db.of_dumps w.dumps in
  Array.iter
    (fun asn ->
      Alcotest.(check bool) "absent" true (Db.find_aut_num database asn = None))
    topo.ases

let suite =
  [ Alcotest.test_case "13 dumps in priority order" `Quick test_thirteen_dumps_in_order;
    Alcotest.test_case "dumps parse cleanly" `Quick test_dumps_parse;
    Alcotest.test_case "no_aut_num persona" `Quick test_personas_no_aut_num;
    Alcotest.test_case "persona rule counts" `Quick test_personas_rule_counts;
    Alcotest.test_case "LACNIC quirk" `Quick test_lacnic_has_no_rules;
    Alcotest.test_case "only-provider persona" `Quick test_only_provider_persona_rules;
    Alcotest.test_case "anomaly objects" `Quick test_anomaly_objects_present;
    Alcotest.test_case "mbrs-by-ref cooperative" `Quick test_mbrs_by_ref_cooperative;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "route object coverage" `Quick test_route_objects_mostly_present;
    Alcotest.test_case "config extremes" `Quick test_config_extremes ]
