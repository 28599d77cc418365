(* Cross-cutting property tests: random policy ASTs round-trip through the
   printer and parser; the verification engine is deterministic and total;
   file-based reading agrees with in-memory parsing. *)
module Ast = Rz_policy.Ast
module Gen = QCheck.Gen

(* ---------------- random policy AST generation ---------------- *)

let gen_asn = Gen.int_range 1 99999
let gen_set_name =
  Gen.map (fun n -> Printf.sprintf "AS-SET%d" n) (Gen.int_range 1 99)
let gen_route_set_name =
  Gen.map (fun n -> Printf.sprintf "RS-SET%d" n) (Gen.int_range 1 99)

let gen_range_op =
  Gen.oneof
    [ Gen.return Rz_net.Range_op.None_;
      Gen.return Rz_net.Range_op.Minus;
      Gen.return Rz_net.Range_op.Plus;
      Gen.map (fun n -> Rz_net.Range_op.Exact n) (Gen.int_range 8 32);
      Gen.map2
        (fun a b -> Rz_net.Range_op.Range (min a b, max a b))
        (Gen.int_range 8 32) (Gen.int_range 8 32) ]

let gen_prefix =
  Gen.map2
    (fun addr24 len -> Rz_net.Prefix.v4 (addr24 lsl 8) len)
    (Gen.int_range 1 0xFFFFFF) (Gen.int_range 8 24)

let rec gen_as_expr depth =
  if depth = 0 then
    Gen.oneof
      [ Gen.map (fun a -> Ast.Asn a) gen_asn;
        Gen.map (fun s -> Ast.As_set s) gen_set_name;
        Gen.return Ast.Any_as ]
  else
    Gen.oneof
      [ gen_as_expr 0;
        Gen.map2 (fun a b -> Ast.And (a, b)) (gen_as_expr (depth - 1)) (gen_as_expr (depth - 1));
        Gen.map2 (fun a b -> Ast.Or (a, b)) (gen_as_expr (depth - 1)) (gen_as_expr (depth - 1)) ]

let rec gen_filter depth =
  if depth = 0 then
    Gen.oneof
      [ Gen.return Ast.Any;
        Gen.return Ast.Peer_as_filter;
        Gen.return Ast.Fltr_martian;
        Gen.map2 (fun a op -> Ast.As_num (a, op)) gen_asn gen_range_op;
        Gen.map2 (fun s op -> Ast.As_set_ref (s, op)) gen_set_name gen_range_op;
        Gen.map2 (fun s op -> Ast.Route_set_ref (s, op)) gen_route_set_name gen_range_op;
        Gen.map
          (fun members -> Ast.Prefix_set (members, Rz_net.Range_op.None_))
          (Gen.list_size (Gen.int_range 1 3) (Gen.pair gen_prefix gen_range_op)) ]
  else
    Gen.oneof
      [ gen_filter 0;
        Gen.map2 (fun a b -> Ast.And_f (a, b)) (gen_filter (depth - 1)) (gen_filter (depth - 1));
        Gen.map2 (fun a b -> Ast.Or_f (a, b)) (gen_filter (depth - 1)) (gen_filter (depth - 1));
        Gen.map (fun a -> Ast.Not_f a) (gen_filter (depth - 1)) ]

let gen_factor =
  Gen.map2
    (fun as_exprs filter ->
      { Ast.peerings =
          List.map
            (fun e ->
              { Ast.peering =
                  Ast.Peering_spec { as_expr = e; remote_router = None; local_router = None };
                actions = [] })
            as_exprs;
        filter })
    (Gen.list_size (Gen.int_range 1 2) (gen_as_expr 1))
    (gen_filter 2)

let gen_rule =
  Gen.map2
    (fun direction factors ->
      { Ast.direction;
        multiprotocol = false;
        protocol = None;
        into_protocol = None;
        expr = Ast.Term_e { afi = []; factors } })
    (Gen.oneofl [ `Import; `Export ])
    (Gen.list_size (Gen.int_range 1 1) gen_factor)

(* The canonical text of a rule (strip the leading "attr:" produced by
   rule_to_string). *)
let rule_body rule =
  let rendered = Ast.rule_to_string rule in
  match String.index_opt rendered ':' with
  | Some i -> String.sub rendered (i + 1) (String.length rendered - i - 1)
  | None -> rendered

let rule_roundtrip =
  QCheck.Test.make ~name:"random rule: print |> parse |> print is stable" ~count:500
    (QCheck.make gen_rule)
    (fun rule ->
      let body = rule_body rule in
      match
        Rz_policy.Parser.parse_rule ~direction:rule.Ast.direction ~multiprotocol:false body
      with
      | Error e -> QCheck.Test.fail_reportf "did not re-parse: %s\n%s" e body
      | Ok reparsed ->
        (* printing must be a fixpoint after one round *)
        String.equal (Ast.rule_to_string rule) (Ast.rule_to_string reparsed))

let filter_roundtrip =
  QCheck.Test.make ~name:"random filter: print |> parse |> print is stable" ~count:500
    (QCheck.make (gen_filter 3))
    (fun filter ->
      let text = Ast.filter_to_string filter in
      match Rz_policy.Parser.parse_filter text with
      | Error e -> QCheck.Test.fail_reportf "did not re-parse: %s\n%s" e text
      | Ok reparsed ->
        String.equal text (Ast.filter_to_string reparsed))

(* ---------------- engine totality / determinism ---------------- *)

let small_world =
  lazy
    (let topo =
       Rz_topology.Gen.generate
         { Rz_topology.Gen.default_params with n_tier1 = 3; n_mid = 15; n_stub = 40 }
     in
     let world = Rz_synthirr.Generate.generate topo in
     let db = Rz_irr.Db.of_dumps world.dumps in
     (topo, db))

let engine_total_and_deterministic =
  QCheck.Test.make ~name:"verify_hop is total and deterministic" ~count:300
    (QCheck.make
       (Gen.tup4 (Gen.int_range 0 57) (Gen.int_range 0 57)
          (Gen.int_range 1 0xFFFFFF) (Gen.list_size (Gen.int_range 1 5) (Gen.int_range 0 57))))
    (fun (subject_i, remote_i, addr24, path_is) ->
      let topo, db = Lazy.force small_world in
      let engine = Rz_verify.Engine.create db topo.rels in
      let asn i = topo.ases.(i mod Array.length topo.ases) in
      let subject = asn subject_i and remote = asn remote_i in
      let prefix = Rz_net.Prefix.v4 (addr24 lsl 8) 24 in
      let path = Array.of_list (List.map asn path_is) in
      let run () =
        Rz_verify.Engine.verify_hop engine ~direction:`Import ~subject ~remote ~prefix ~path
      in
      let a = run () and b = run () in
      Rz_verify.Status.to_string a.status = Rz_verify.Status.to_string b.status)

let status_precedence_no_aut_num =
  QCheck.Test.make ~name:"missing aut-num always classifies Unrecorded" ~count:100
    (QCheck.make (Gen.int_range 5_000_000 6_000_000))
    (fun ghost_asn ->
      let topo, db = Lazy.force small_world in
      let engine = Rz_verify.Engine.create db topo.rels in
      let hop =
        Rz_verify.Engine.verify_hop engine ~direction:`Export ~subject:ghost_asn
          ~remote:topo.ases.(0)
          ~prefix:(Rz_net.Prefix.of_string_exn "203.0.113.0/24")
          ~path:[| ghost_asn |]
      in
      match hop.status with Rz_verify.Status.Unrecorded _ -> true | _ -> false)

(* ---------------- observability: histogram accuracy ---------------- *)

(* Feed random streams of values into an Rz_obs log-bucketed histogram and
   compare every extracted quantile against the exact answer computed from
   the sorted array (same rank convention: max 1 (ceil (q * n))).  The
   bucket layout guarantees the estimate is within one bucket's relative
   error, i.e. a factor of gamma, of the true value. *)
let histogram_quantile_accuracy =
  (* log-uniform values spanning ~150 buckets, so streams exercise the
     underflow-free range broadly rather than clustering in a few cells *)
  let gen_stream =
    Gen.list_size (Gen.int_range 1 400)
      (Gen.map exp (Gen.float_range 0.0 25.0))
  in
  QCheck.Test.make ~name:"histogram quantiles within one bucket of exact" ~count:150
    (QCheck.make ~print:QCheck.Print.(list float) gen_stream)
    (fun values ->
      let module Obs = Rz_obs.Obs in
      Obs.reset ();
      Obs.enable ();
      Fun.protect
        ~finally:(fun () ->
          Obs.disable ();
          Obs.reset ())
      @@ fun () ->
      let h = Obs.Histogram.make "test.property.hist" in
      List.iter (Obs.Histogram.observe h) values;
      let arr = Array.of_list (List.sort compare values) in
      let n = Array.length arr in
      let g = Float.pow 2.0 0.25 (* the bucket growth factor *) in
      Obs.Histogram.count h = n
      && List.for_all
           (fun q ->
             let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
             let exact = arr.(rank - 1) in
             let est = Obs.Histogram.quantile h q in
             est >= exact /. g && est <= exact *. g)
           [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ])

(* ---------------- fault-injection properties ---------------- *)

(* One moderately sized clean dump, corrupted differently per case. *)
let fault_base_dumps =
  lazy
    (let topo_params =
       { Rz_topology.Gen.default_params with seed = 11; n_tier1 = 2; n_mid = 10; n_stub = 30 }
     in
     (Rpslyzer.Pipeline.build_synthetic ~topo_params ()).dumps)

let gen_fault_plan =
  Gen.map2
    (fun seed rate -> Rz_fault.Fault.plan ~seed ~rate:(float_of_int rate /. 100.) ())
    (Gen.int_range 0 10_000) (Gen.int_range 0 40)

(* Parsing is total and deterministic on any corrupted dump: for every
   plan, parse_string returns a result decomposed into objects + errors
   (never an exception), twice-parsing agrees, and a non-empty corrupted
   text always accounts for at least one object or error. *)
let fault_parse_total =
  QCheck.Test.make ~count:40 ~name:"corrupted parse is total and deterministic"
    (QCheck.make gen_fault_plan) (fun plan ->
      List.for_all
        (fun (_, text) ->
          let corrupted, _ = Rz_fault.Fault.corrupt_dump plan text in
          let a = Rz_rpsl.Reader.parse_string corrupted in
          let b = Rz_rpsl.Reader.parse_string corrupted in
          List.length a.objects = List.length b.objects
          && List.length a.errors = List.length b.errors
          && (String.trim corrupted = "" || a.objects <> [] || a.errors <> []))
        (Lazy.force fault_base_dumps))

(* Hop accounting survives corruption: the aggregate's per-class counts
   sum to its hop total, and both agree with the verify.hops_total
   observability counter. *)
let fault_hops_accounting =
  QCheck.Test.make ~count:5 ~name:"hop accounting under corruption"
    (QCheck.make gen_fault_plan) (fun plan ->
      let world =
        Rpslyzer.Pipeline.build_synthetic
          ~topo_params:{ Rz_topology.Gen.default_params with seed = 11; n_tier1 = 2; n_mid = 10; n_stub = 30 }
          ()
      in
      let corrupted, _ = Rz_fault.Fault.corrupt_dumps plan world.dumps in
      let db = Rz_irr.Db.of_dumps corrupted in
      let world = { world with Rpslyzer.Pipeline.db; dumps = corrupted } in
      Rz_obs.Obs.enable ();
      Rz_obs.Obs.reset ();
      let c_hops = Rz_obs.Obs.Counter.make "verify.hops_total" in
      let agg, _, _ = Rpslyzer.Pipeline.verify world in
      let counted = Rz_obs.Obs.Counter.get c_hops in
      Rz_obs.Obs.disable ();
      let classes = Rz_verify.Aggregate.counts_classes (Rz_verify.Aggregate.overall agg) in
      let class_sum = List.fold_left (fun acc (_, n) -> acc + n) 0 classes in
      let hops = Rz_verify.Aggregate.n_hops agg in
      class_sum = hops && counted = hops)

(* ---------------- hop-memoization parity ---------------- *)

(* The hop-verdict memo must be invisible in the output. A single
   long-lived memoizing engine (so hits really accumulate across cases)
   and a memo-off engine must produce structurally identical route
   reports — status, diagnostic items, and action-assigned attributes.
   Each route is also verified twice on the memoizing engine, so both
   the miss path and the hit path are compared against the unmemoized
   engine. *)

let memo_parity_engines =
  lazy
    (let topo, db = Lazy.force small_world in
     ( topo,
       Rz_verify.Engine.create db topo.rels,
       Rz_verify.Engine.create
         ~config:{ Rz_verify.Engine.default_config with memoize = false }
         db topo.rels ))

let gen_route_shape =
  Gen.tup2 (Gen.int_range 1 0xFFFFFF)
    (Gen.list_size (Gen.int_range 1 6) (Gen.int_range 0 57))

let memo_parity_synthetic =
  QCheck.Test.make ~name:"memoized engine = unmemoized engine (synthetic world)"
    ~count:300
    (QCheck.make gen_route_shape)
    (fun (addr24, path_is) ->
      let topo, memo_engine, plain_engine = Lazy.force memo_parity_engines in
      let asn i = topo.ases.(i mod Array.length topo.ases) in
      let route =
        Rz_bgp.Route.make
          (Rz_net.Prefix.v4 (addr24 lsl 8) 24)
          (List.map asn path_is)
      in
      let plain = Rz_verify.Engine.verify_route plain_engine route in
      let memo1 = Rz_verify.Engine.verify_route memo_engine route in
      let memo2 = Rz_verify.Engine.verify_route memo_engine route in
      plain = memo1 && plain = memo2)

(* Same parity over a hand-written world whose policies read the AS path:
   synthirr never emits [Path_regex] filters, so this world forces the
   per-(aut-num, direction) path-freeness analysis to flag subjects as
   path-dependent and bypass the memo for them, while AS2's plain
   policies stay memoizable. *)
let memo_parity_regex_engines =
  lazy
    (let rpsl =
       "aut-num: AS1\n\
        import: from AS2 accept <^AS2 AS3*$>\n\
        export: to AS2 announce ANY\n\
        \n\
        aut-num: AS2\n\
        import: from AS1 accept ANY\n\
        import: from AS3 accept AS-REG\n\
        export: to AS1 announce ANY\n\
        export: to AS3 announce AS2\n\
        \n\
        aut-num: AS3\n\
        import: from AS2 accept <^AS2+ AS1$>\n\
        export: to AS2 announce <^AS3$>\n\
        \n\
        as-set: AS-REG\n\
        members: AS1, AS3\n\
        \n\
        route: 10.0.0.0/24\n\
        origin: AS3\n\
        \n\
        route: 10.1.0.0/24\n\
        origin: AS1\n"
     in
     let db = Rz_irr.Db.of_dumps [ ("parity", rpsl) ] in
     let rels = Rz_asrel.Rel_db.create () in
     Rz_asrel.Rel_db.add_p2c rels ~provider:2 ~customer:1;
     Rz_asrel.Rel_db.add_p2c rels ~provider:2 ~customer:3;
     ( Rz_verify.Engine.create db rels,
       Rz_verify.Engine.create
         ~config:{ Rz_verify.Engine.default_config with memoize = false }
         db rels ))

let memo_parity_path_regex =
  QCheck.Test.make ~name:"memoized engine = unmemoized engine (path-regex world)"
    ~count:300
    (QCheck.make
       (Gen.tup2 (Gen.int_range 0 7)
          (Gen.list_size (Gen.int_range 1 5) (Gen.int_range 1 5))))
    (fun (net, path) ->
      let memo_engine, plain_engine = Lazy.force memo_parity_regex_engines in
      let route =
        Rz_bgp.Route.make
          (Rz_net.Prefix.v4 ((10 lsl 24) lor (net lsl 8)) 24)
          path
      in
      let plain = Rz_verify.Engine.verify_route plain_engine route in
      let memo1 = Rz_verify.Engine.verify_route memo_engine route in
      let memo2 = Rz_verify.Engine.verify_route memo_engine route in
      plain = memo1 && plain = memo2)

let test_world_save_load_roundtrip () =
  let world =
    Rpslyzer.Pipeline.build_synthetic
      ~topo_params:{ Rz_topology.Gen.default_params with n_tier1 = 2; n_mid = 8; n_stub = 20 }
      ()
  in
  let dir = Filename.temp_file "world" "" in
  Sys.remove dir;
  Rpslyzer.Pipeline.save_world world dir;
  let loaded = Rpslyzer.Pipeline.load_world dir in
  let ir_a = Rz_irr.Db.ir world.db and ir_b = Rz_irr.Db.ir loaded.db in
  Alcotest.(check int) "same aut-num count" (Hashtbl.length ir_a.Rz_ir.Ir.aut_nums)
    (Hashtbl.length ir_b.Rz_ir.Ir.aut_nums);
  Alcotest.(check int) "same route count" (Rz_ir.Ir.n_route_objs ir_a) (Rz_ir.Ir.n_route_objs ir_b);
  let routes d =
    List.concat_map (fun (t : Rz_bgp.Table_dump.t) -> t.routes) d
  in
  Alcotest.(check int) "same collector routes"
    (List.length (routes world.table_dumps))
    (List.length (routes loaded.table_dumps));
  (* verification produces identical aggregates on the reloaded world *)
  let agg_a, _, _ = Rpslyzer.Pipeline.verify world in
  let agg_b, _, _ = Rpslyzer.Pipeline.verify loaded in
  Alcotest.(check (list (pair string int))) "same hop classes"
    (Rz_verify.Aggregate.counts_classes (Rz_verify.Aggregate.overall agg_a))
    (Rz_verify.Aggregate.counts_classes (Rz_verify.Aggregate.overall agg_b));
  (* cleanup *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let suite =
  [ QCheck_alcotest.to_alcotest rule_roundtrip;
    QCheck_alcotest.to_alcotest filter_roundtrip;
    QCheck_alcotest.to_alcotest engine_total_and_deterministic;
    QCheck_alcotest.to_alcotest status_precedence_no_aut_num;
    QCheck_alcotest.to_alcotest histogram_quantile_accuracy;
    QCheck_alcotest.to_alcotest fault_parse_total;
    QCheck_alcotest.to_alcotest fault_hops_accounting;
    QCheck_alcotest.to_alcotest memo_parity_synthetic;
    QCheck_alcotest.to_alcotest memo_parity_path_regex;
    Alcotest.test_case "world save/load roundtrip" `Quick test_world_save_load_roundtrip ]
