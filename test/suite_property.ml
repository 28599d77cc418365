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

(* [asn] and [set] draw the ASNs and as-set names referenced. *)
let rec gen_as_expr ?(asn = gen_asn) ?(set = gen_set_name) depth =
  if depth = 0 then
    Gen.oneof
      [ Gen.map (fun a -> Ast.Asn a) asn;
        Gen.map (fun s -> Ast.As_set s) set;
        Gen.return Ast.Any_as ]
  else
    let sub = gen_as_expr ~asn ~set (depth - 1) in
    Gen.oneof
      [ gen_as_expr ~asn ~set 0;
        Gen.map2 (fun a b -> Ast.And (a, b)) sub sub;
        Gen.map2 (fun a b -> Ast.Or (a, b)) sub sub ]

let rec gen_filter ?(asn = gen_asn) ?(set = gen_set_name) depth =
  if depth = 0 then
    Gen.oneof
      [ Gen.return Ast.Any;
        Gen.return Ast.Peer_as_filter;
        Gen.return Ast.Fltr_martian;
        Gen.map2 (fun a op -> Ast.As_num (a, op)) asn gen_range_op;
        Gen.map2 (fun s op -> Ast.As_set_ref (s, op)) set gen_range_op;
        Gen.map2 (fun s op -> Ast.Route_set_ref (s, op)) gen_route_set_name gen_range_op;
        Gen.map
          (fun members -> Ast.Prefix_set (members, Rz_net.Range_op.None_))
          (Gen.list_size (Gen.int_range 1 3) (Gen.pair gen_prefix gen_range_op)) ]
  else
    let sub = gen_filter ~asn ~set (depth - 1) in
    Gen.oneof
      [ gen_filter ~asn ~set 0;
        Gen.map2 (fun a b -> Ast.And_f (a, b)) sub sub;
        Gen.map2 (fun a b -> Ast.Or_f (a, b)) sub sub;
        Gen.map (fun a -> Ast.Not_f a) sub ]

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

(* ---------------- shared AST enumeration ---------------- *)

let is_filter_leaf = function Ast.And_f _ | Ast.Or_f _ | Ast.Not_f _ -> false | _ -> true

let filter_leaves_algebra =
  QCheck.Test.make ~name:"filter leaves: composites concatenate, leaves are fixed points"
    ~count:300
    (QCheck.make (Gen.pair (gen_filter 2) (gen_filter 2)))
    (fun (a, b) ->
      let leaves = Ast.filter_leaves in
      leaves (Ast.And_f (a, b)) = leaves a @ leaves b
      && leaves (Ast.Or_f (a, b)) = leaves a @ leaves b
      && leaves (Ast.Not_f a) = leaves a
      && List.for_all (fun l -> is_filter_leaf l && leaves l = [ l ]) (leaves a))

let as_expr_leaves_algebra =
  QCheck.Test.make ~name:"as-expr leaves: composites concatenate, leaves are fixed points"
    ~count:300
    (QCheck.make (Gen.pair (gen_as_expr 2) (gen_as_expr 2)))
    (fun (a, b) ->
      let leaves = Ast.as_expr_leaves in
      let is_leaf = function Ast.And _ | Ast.Or _ | Ast.Except_as _ -> false | _ -> true in
      List.for_all
        (fun e -> leaves e = leaves a @ leaves b)
        [ Ast.And (a, b); Ast.Or (a, b); Ast.Except_as (a, b) ]
      && List.for_all (fun l -> is_leaf l && leaves l = [ l ]) (leaves a))

(* 1-4 terms in written order, and a rule joining them with a random
   EXCEPT or REFINE after each term but the last. *)
let gen_structured_rule =
  let gen_term =
    Gen.map
      (fun factors -> { Ast.afi = []; factors })
      (Gen.list_size (Gen.int_range 1 3) gen_factor)
  in
  let rec join = function
    | [] -> invalid_arg "join"
    | [ (term, _) ] -> Ast.Term_e term
    | (term, true) :: rest -> Ast.Refine_e (term, join rest)
    | (term, false) :: rest -> Ast.Except_e (term, join rest)
  in
  Gen.map
    (fun joined ->
      ( List.map fst joined,
        { Ast.direction = `Import; multiprotocol = false; protocol = None;
          into_protocol = None; expr = join joined } ))
    (Gen.list_size (Gen.int_range 1 4) (Gen.pair gen_term Gen.bool))

let rule_factors_concatenate =
  QCheck.Test.make ~name:"rule factors: the terms' factors in written order" ~count:300
    (QCheck.make gen_structured_rule)
    (fun (terms, rule) ->
      let factors = List.concat_map (fun (t : Ast.term) -> t.factors) terms in
      Ast.rule_factors rule = factors
      && Ast.rule_peerings rule
         = List.concat_map (fun (f : Ast.factor) -> f.peerings) factors)

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

(* ---------------- verdict mode = full fold ---------------- *)

(* [Engine.verify_rib], [verify_route] and [verify_hop] evaluate in
   verdict mode: only the rules that can name the remote, up to the
   first match, with no diagnostics. [Engine.explain_route] and
   [explain_hop] are the full fold. *)

let is_peering_item = function
  | Rz_verify.Report.Match_remote_as_num _ | Rz_verify.Report.Match_remote_as_set _ -> true
  | _ -> false

(* The hops of [route] from [Engine.explain_hop], each on its own copy
   of the path announced across the hop, in report order. *)
let hops_on_own_paths engine (route : Rz_bgp.Route.t) =
  let path = Array.of_list (Rz_bgp.Route.dedup_path route) in
  let n = Array.length path in
  List.concat_map
    (fun i ->
      let hop_path = Array.sub path (i + 1) (n - i - 1) in
      let check direction subject remote =
        Rz_verify.Engine.explain_hop engine ~direction ~subject ~remote ~prefix:route.prefix
          ~path:hop_path
      in
      [ check `Export path.(i + 1) path.(i); check `Import path.(i) path.(i + 1) ])
    (List.init (max 0 (n - 1)) (fun k -> n - 2 - k))

(* Verdict mode against the full fold, hop by hop: [verify_rib] on one
   engine, [explain_route] on another. Each verdict hop has no items and
   the full fold's status, attrs and peering-only bit; that bit is the
   full fold's "every item is a peering mismatch"; the full fold equals
   [explain_hop] given each hop's own path; and [verify_route] on an
   engine whose memo outlives the prefix gives [verify_rib]'s report.
   Returns the number of hops compared and the first disagreement. *)
let verdict_vs_full db rels routes =
  let module E = Rz_verify.Engine in
  let module R = Rz_verify.Report in
  let verdict = E.create db rels and persistent = E.create db rels in
  let full = E.create db rels in
  let hops = ref 0 and first_diff = ref None in
  let diff what route (hop : R.hop) =
    if !first_diff = None then
      first_diff :=
        Some (Printf.sprintf "%s: %s at %s" (Rz_bgp.Route.to_line route) what (R.hop_to_string hop))
  in
  E.verify_rib verdict (Array.copy routes) (fun route v ->
      match (v, E.explain_route full route) with
      | None, None -> ()
      | Some v, Some f when List.length v.R.hops = List.length f.R.hops ->
        if f.hops <> hops_on_own_paths full route then
          diff "full fold differs from explain_hop on the hop's own path" route
            (List.hd f.hops);
        if E.verify_route persistent route <> Some v then
          diff "verify_route on a persistent memo differs from verify_rib" route
            (List.hd v.hops);
        List.iter2
          (fun (vh : R.hop) (fh : R.hop) ->
            incr hops;
            if vh.status <> fh.status then diff "status" route fh
            else if vh.attrs <> fh.attrs then diff "attrs" route fh
            else if vh.peering_only <> fh.peering_only then diff "peering_only" route fh
            else if fh.peering_only <> List.for_all is_peering_item fh.items then
              diff "full fold's peering_only is not its items'" route fh
            else if vh.items <> [] then diff "verdict hop has items" route vh)
          v.hops f.hops
      | _ -> if !first_diff = None then first_diff := Some (Rz_bgp.Route.to_line route ^ ": reported differently"));
  (!hops, !first_diff)

(* Small worlds: at most 12 ASes numbered from 1, random aut-nums built
   from the rule generators above over the world's own ASNs and sets,
   and paths over every link in both directions. *)
type small_world = {
  sw_links : (int * int * [ `P2c | `Peer ]) list;  (* provider first for `P2c *)
  sw_clique : int list;
  sw_sets : (string * int list * string list) list;
  sw_peering_set : Ast.peering list;  (* PRNG-SET1; PRNG-SET2 is never defined *)
  sw_route_objs : (Rz_net.Prefix.t * int) list;
  sw_aut_nums : (int * Ast.rule list * Ast.rule list) list;
  sw_routes : Rz_bgp.Route.t list;
}

let sw_prefixes =
  List.map Rz_net.Prefix.of_string_exn
    [ "10.0.0.0/16"; "10.0.1.0/24"; "10.0.2.0/24"; "10.1.0.0/24"; "192.0.2.0/24";
      "2001:db8::/32"; "2001:db8:1::/48"; "2001:db8:2::/48"; "2001:db8:ffff::/48" ]

let gen_small_rule ~asn ~set direction =
  let open Gen in
  let single = map (fun a -> Ast.Asn a) asn in
  let peering =
    frequency
      [ ( 8,
          map
            (fun as_expr ->
              Ast.Peering_spec { as_expr; remote_router = None; local_router = None })
            (frequency
               [ (6, single);
                 (2, gen_as_expr ~asn ~set 1);
                 (1, map2 (fun a b -> Ast.Except_as (a, b)) (gen_as_expr ~asn ~set 0) single) ]) );
        (1, oneofl [ Ast.Peering_set_ref "PRNG-SET1"; Ast.Peering_set_ref "PRNG-SET2" ]) ]
  in
  let actions =
    frequency
      [ (5, return []);
        (2, map (fun n -> [ Ast.Assign ("pref", string_of_int n) ]) (int_range 0 300));
        (1, return [ Ast.Assign ("med", "5"); Ast.Append_op ("community", [ "65000:1" ]) ]);
        (1, return [ Ast.Assign ("no-such-attribute", "1") ]) ]
  in
  let regex =
    map2
      (fun a b ->
        match Rz_aspath.Regex_parse.parse (Printf.sprintf "^AS%d .* AS%d$" a b) with
        | Ok r -> Ast.Path_regex r
        | Error e -> failwith e)
      asn asn
  in
  let filter =
    frequency
      [ (4, return Ast.Any);
        (3, map2 (fun a op -> Ast.As_num (a, op)) asn gen_range_op);
        (1, return Ast.Peer_as_filter);
        (2, map (fun s -> Ast.As_set_ref (s, Rz_net.Range_op.None_)) set);
        (2, gen_filter ~asn ~set 1);
        (1, regex);
        (1, return (Ast.Community ("", [ "65000:1" ]))) ]
  in
  let factor =
    map2
      (fun peerings filter -> { Ast.peerings; filter })
      (list_size (int_range 1 2)
         (map2 (fun peering actions -> { Ast.peering; actions }) peering actions))
      filter
  in
  let v4 = { Rz_net.Afi.family = Rz_net.Afi.Ipv4; sub = Rz_net.Afi.Unicast } in
  let v6 = { Rz_net.Afi.family = Rz_net.Afi.Ipv6; sub = Rz_net.Afi.Unicast } in
  let term =
    map2
      (fun afi factors -> { Ast.afi; factors })
      (oneofl [ []; []; [ Rz_net.Afi.any ]; [ v4 ]; [ v6 ] ])
      (list_size (int_range 1 2) factor)
  in
  let expr =
    frequency
      [ (5, map (fun t -> Ast.Term_e t) term);
        (1, map2 (fun a b -> Ast.Except_e (a, Ast.Term_e b)) term term);
        (1, map2 (fun a b -> Ast.Refine_e (a, Ast.Term_e b)) term term) ]
  in
  map2
    (fun multiprotocol expr ->
      { Ast.direction; multiprotocol; protocol = None; into_protocol = None; expr })
    bool expr

let gen_small_world =
  let open Gen in
  int_range 2 12 >>= fun n ->
  let asn = int_range 1 n in
  let set = map (Printf.sprintf "AS-SET%d") (int_range 1 4) (* AS-SET4: undefined *) in
  let rules direction = list_size (int_range 0 4) (gen_small_rule ~asn ~set direction) in
  let links =
    map
      (fun l ->
        List.sort_uniq compare
          ((1, 2, `P2c)
          :: List.filter_map
               (fun (a, b, kind) -> if a = b then None else Some (a, b, kind))
               l))
      (list_size (int_range 0 (2 * n)) (triple asn asn (oneofl [ `P2c; `Peer ])))
  in
  let aut_num a =
    frequency
      [ (1, return None);
        (8, map2 (fun imports exports -> Some (a, imports, exports)) (rules `Import) (rules `Export)) ]
  in
  links >>= fun sw_links ->
  let neighbours a =
    List.concat_map
      (fun (x, y, _) -> if x = a then [ y ] else if y = a then [ x ] else [])
      sw_links
  in
  (* every link both ways, extended at either end by a random AS or a
     neighbour, and sometimes prepended *)
  let route (u, v) =
    map2
      (fun (before, after, prepend) prefix ->
        let path =
          (match before with Some x -> [ x ] | None -> [])
          @ [ u ] @ (if prepend then [ v; v ] else [ v ])
          @ match after with Some y -> [ y ] | None -> []
        in
        Rz_bgp.Route.make prefix path)
      (triple
         (opt (oneof [ asn; oneofl (neighbours u) ]))
         (opt (oneof [ asn; oneofl (neighbours v) ]))
         (frequency [ (4, return false); (1, return true) ]))
      (oneofl sw_prefixes)
  in
  let directed = List.concat_map (fun (a, b, _) -> [ (a, b); (b, a) ]) sw_links in
  map3
    (fun (sw_clique, sw_sets, sw_peering_set) (sw_route_objs, aut_nums) sw_routes ->
      { sw_links; sw_clique; sw_sets; sw_peering_set; sw_route_objs;
        sw_aut_nums = List.filter_map Fun.id aut_nums; sw_routes })
    (triple
       (list_size (int_range 0 3) asn)
       (flatten_l
          (List.map
             (fun name ->
               map2
                 (fun asns sets -> (name, asns, sets))
                 (list_size (int_range 0 3) asn)
                 (list_size (int_range 0 1) set))
             [ "AS-SET1"; "AS-SET2"; "AS-SET3" ]))
       (list_size (int_range 1 2)
          (map
             (fun as_expr ->
               Ast.Peering_spec { as_expr; remote_router = None; local_router = None })
             (gen_as_expr ~asn ~set 0))))
    (pair
       (list_size (int_range 0 (2 * n)) (pair (oneofl sw_prefixes) asn))
       (flatten_l (List.init n (fun i -> aut_num (i + 1)))))
    (flatten_l (List.map route directed))

let print_small_world w =
  let b = Buffer.create 1024 in
  List.iter
    (fun (a, c, kind) ->
      Buffer.add_string b
        (Printf.sprintf "%d %s %d\n" a (match kind with `P2c -> "p2c" | `Peer -> "peer") c))
    w.sw_links;
  Buffer.add_string b
    (Printf.sprintf "clique %s\n" (String.concat " " (List.map string_of_int w.sw_clique)));
  List.iter
    (fun (name, asns, sets) ->
      Buffer.add_string b
        (Printf.sprintf "as-set %s: %s\n" name
           (String.concat ", " (List.map (Printf.sprintf "AS%d") asns @ sets))))
    w.sw_sets;
  List.iter
    (fun (p, o) ->
      Buffer.add_string b (Printf.sprintf "route %s AS%d\n" (Rz_net.Prefix.to_string p) o))
    w.sw_route_objs;
  List.iter
    (fun (a, imports, exports) ->
      Buffer.add_string b (Printf.sprintf "aut-num AS%d\n" a);
      List.iter
        (fun r -> Buffer.add_string b ("  " ^ Ast.rule_to_string r ^ "\n"))
        (imports @ exports))
    w.sw_aut_nums;
  List.iter
    (fun r -> Buffer.add_string b (Rz_bgp.Route.to_line r ^ "\n"))
    w.sw_routes;
  Buffer.contents b

let small_db w =
  let module Ir = Rz_ir.Ir in
  let ir = Ir.create () in
  List.iter
    (fun (asn, imports, exports) ->
      Hashtbl.replace ir.Ir.aut_nums asn
        { Ir.asn; as_name = Printf.sprintf "NET%d" asn; imports; exports; defaults = [];
          member_of = []; mnt_by = []; source = "TEST" })
    w.sw_aut_nums;
  List.iter
    (fun (name, member_asns, member_sets) ->
      Hashtbl.replace ir.Ir.as_sets name
        { Ir.name; member_asns; member_sets; contains_any = false; mbrs_by_ref = [];
          mnt_by = []; source = "TEST" })
    w.sw_sets;
  Hashtbl.replace ir.Ir.peering_sets "PRNG-SET1"
    { Ir.name = "PRNG-SET1"; peerings = w.sw_peering_set; source = "TEST" };
  List.iter
    (fun (prefix, origin) ->
      if not (Hashtbl.mem ir.Ir.route_seen (prefix, origin)) then
        Ir.add_route ir ~prefix ~origin ~member_of:[] ~mnt_by:[] ~source:"TEST")
    w.sw_route_objs;
  Rz_irr.Db.build ir

let small_rels w =
  let rels = Rz_asrel.Rel_db.create () in
  List.iter
    (fun (a, b, kind) ->
      match kind with
      | `P2c -> Rz_asrel.Rel_db.add_p2c rels ~provider:a ~customer:b
      | `Peer -> Rz_asrel.Rel_db.add_p2p rels a b)
    w.sw_links;
  if w.sw_clique <> [] then Rz_asrel.Rel_db.set_clique rels (List.sort_uniq compare w.sw_clique);
  rels

let verdict_equals_full_small_worlds =
  QCheck.Test.make ~name:"verdict mode = full fold (small worlds)" ~count:1000
    (QCheck.make ~print:print_small_world gen_small_world)
    (fun w ->
      let _, first_diff =
        verdict_vs_full (small_db w) (small_rels w) (Array.of_list w.sw_routes)
      in
      match first_diff with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

let test_world_save_load_roundtrip () =
  let module P = Rpslyzer.Pipeline in
  let topo_params = { Rz_topology.Gen.default_params with n_tier1 = 2; n_mid = 8; n_stub = 20 } in
  let world = P.build_synthetic ~topo_params () in
  let dir = Filename.temp_file "world" "" in
  Sys.remove dir;
  let _, n_written =
    P.write_world ~topo_params ~irr_config:Rz_synthirr.Config.default
      ~n_collectors:P.n_collectors ~n_collector_mids:P.n_collector_mids dir
  in
  let loaded = P.load_world dir in
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
  Alcotest.(check int) "route count returned" n_written (List.length (routes loaded.table_dumps));
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
    QCheck_alcotest.to_alcotest filter_leaves_algebra;
    QCheck_alcotest.to_alcotest as_expr_leaves_algebra;
    QCheck_alcotest.to_alcotest rule_factors_concatenate;
    QCheck_alcotest.to_alcotest engine_total_and_deterministic;
    QCheck_alcotest.to_alcotest status_precedence_no_aut_num;
    QCheck_alcotest.to_alcotest histogram_quantile_accuracy;
    QCheck_alcotest.to_alcotest fault_parse_total;
    QCheck_alcotest.to_alcotest fault_hops_accounting;
    QCheck_alcotest.to_alcotest memo_parity_synthetic;
    QCheck_alcotest.to_alcotest memo_parity_path_regex;
    QCheck_alcotest.to_alcotest verdict_equals_full_small_worlds;
    Alcotest.test_case "world save/load roundtrip" `Quick test_world_save_load_roundtrip ]
