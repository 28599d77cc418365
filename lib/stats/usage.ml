module Ast = Rz_policy.Ast
module Ir = Rz_ir.Ir
module Db = Rz_irr.Db

type table1_row = {
  irr : string;
  size_bytes : int;
  n_aut_num : int;
  n_route : int;
  n_import : int;
  n_export : int;
}

type table2 = {
  defined_aut_num : int;
  defined_as_set : int;
  defined_route_set : int;
  defined_peering_set : int;
  defined_filter_set : int;
  ref_overall_aut_num : int;
  ref_overall_as_set : int;
  ref_overall_route_set : int;
  ref_overall_peering_set : int;
  ref_overall_filter_set : int;
  ref_peering_aut_num : int;
  ref_peering_as_set : int;
  ref_peering_peering_set : int;
  ref_filter_aut_num : int;
  ref_filter_as_set : int;
  ref_filter_route_set : int;
  ref_filter_filter_set : int;
}

type route_stats = {
  n_objects : int;
  n_prefix_origin : int;
  n_prefixes : int;
  multi_object_prefixes : int;
  multi_origin_prefixes : int;
  multi_maintainer_prefixes : int;
}

type as_set_stats = {
  n_sets : int;
  empty : int;
  singleton : int;
  over_10k : int;
  contains_any : int;
  recursive : int;
  with_loop : int;
  depth_5_plus : int;
}

type error_stats = {
  syntax_errors : int;
  invalid_as_set_names : int;
  invalid_route_set_names : int;
}

type t = {
  table1 : table1_row list;
  rules_per_aut_num : (Rz_net.Asn.t * int) list;
  bgpq4_rules_per_aut_num : (Rz_net.Asn.t * int) list;
  peering_simple_fraction : float;
  ases_bgpq4_only : float;
  filter_kind_histogram : (string * int) list;
  table2 : table2;
  route_stats : route_stats;
  as_set_stats : as_set_stats;
  error_stats : error_stats;
}

(* ---------------- reference walking ---------------- *)

type refs = {
  aut_nums : (Rz_net.Asn.t, unit) Hashtbl.t;
  as_sets : (string, unit) Hashtbl.t;
  route_sets : (string, unit) Hashtbl.t;
  peering_sets : (string, unit) Hashtbl.t;
  filter_sets : (string, unit) Hashtbl.t;
}

let fresh_refs () =
  { aut_nums = Hashtbl.create 256;
    as_sets = Hashtbl.create 64;
    route_sets = Hashtbl.create 64;
    peering_sets = Hashtbl.create 8;
    filter_sets = Hashtbl.create 8 }

let canon = Rz_rpsl.Set_name.canonical

let note tbl name = Hashtbl.replace tbl (canon name) ()

let walk_peering refs = function
  | Ast.Peering_spec { as_expr; _ } ->
    List.iter
      (function
        | Ast.Asn asn -> Hashtbl.replace refs.aut_nums asn ()
        | Ast.As_set name -> note refs.as_sets name
        | _ -> ())
      (Ast.as_expr_leaves as_expr)
  | Ast.Peering_set_ref name -> note refs.peering_sets name

let walk_filter refs filter =
  List.iter
    (function
      | Ast.As_num (asn, _) -> Hashtbl.replace refs.aut_nums asn ()
      | Ast.As_set_ref (name, _) -> note refs.as_sets name
      | Ast.Route_set_ref (name, _) -> note refs.route_sets name
      | Ast.Filter_set_ref name -> note refs.filter_sets name
      | Ast.Path_regex regex ->
        List.iter
          (function
            | Rz_aspath.Regex_ast.Asn asn -> Hashtbl.replace refs.aut_nums asn ()
            | Rz_aspath.Regex_ast.As_set name -> note refs.as_sets name
            | _ -> ())
          (Rz_aspath.Regex_ast.terms regex)
      | _ -> ())
    (Ast.filter_leaves filter)

let walk_rules ir ~in_peering ~in_filter =
  Hashtbl.iter
    (fun _ (an : Ir.aut_num) ->
      let rules = an.imports @ an.exports in
      List.iter
        (fun (pa : Ast.peering_action) -> walk_peering in_peering pa.peering)
        (List.concat_map Ast.rule_peerings rules);
      List.iter
        (fun (factor : Ast.factor) -> walk_filter in_filter factor.filter)
        (List.concat_map Ast.rule_factors rules))
    ir.Ir.aut_nums

(* ---------------- filter shapes / peering simplicity ---------------- *)

let filter_kind = function
  | Ast.Any -> "ANY"
  | Ast.Peer_as_filter -> "PeerAS"
  | Ast.As_num _ -> "asn"
  | Ast.As_set_ref _ -> "as-set"
  | Ast.Route_set_ref _ -> "route-set"
  | Ast.Filter_set_ref _ -> "filter-set"
  | Ast.Prefix_set _ -> "prefix-set"
  | Ast.Path_regex _ -> "as-path-regex"
  | Ast.Community _ -> "community"
  | Ast.Fltr_martian -> "fltr-martian"
  | Ast.And_f _ | Ast.Or_f _ | Ast.Not_f _ -> "composite"

let peering_is_simple = function
  | Ast.Peering_spec { as_expr = Ast.Asn _; _ } | Ast.Peering_spec { as_expr = Ast.Any_as; _ } ->
    true
  | _ -> false

(* ---------------- Table 1 and route-object stats (raw dumps) ---------------- *)

(* One scan of each dump fills both its Table 1 row and the pre-dedup
   route-object tallies, which span every dump. *)
let raw_dump_stats dumps =
  let by_prefix : (string, (Rz_net.Asn.t * string) list) Hashtbl.t = Hashtbl.create 4096 in
  let pairs = Hashtbl.create 4096 in
  let n_objects = ref 0 in
  let add_route (o : Rz_rpsl.Obj.t) =
    match
      ( Rz_net.Prefix.of_string o.name,
        Option.bind (Rz_rpsl.Obj.value o "origin") (fun s ->
            Result.to_option (Rz_net.Asn.of_string s)) )
    with
    | Ok prefix, Some origin ->
      incr n_objects;
      let key = Rz_net.Prefix.to_string prefix in
      let mnt = Option.value ~default:"" (Rz_rpsl.Obj.value o "mnt-by") in
      let existing = Option.value ~default:[] (Hashtbl.find_opt by_prefix key) in
      Hashtbl.replace by_prefix key ((origin, mnt) :: existing);
      Hashtbl.replace pairs (key, origin) ()
    | _ -> ()
  in
  let table1 =
    List.map
      (fun (irr, text) ->
        let n_aut_num = ref 0 and n_route = ref 0 in
        let n_import = ref 0 and n_export = ref 0 in
        List.iter
          (fun (o : Rz_rpsl.Obj.t) ->
            if o.cls = "aut-num" then incr n_aut_num
            else if o.cls = "route" || o.cls = "route6" then begin
              incr n_route;
              add_route o
            end;
            List.iter
              (fun (a : Rz_rpsl.Attr.t) ->
                match a.key with
                | "import" | "mp-import" -> incr n_import
                | "export" | "mp-export" -> incr n_export
                | _ -> ())
              o.attrs)
          (Rz_rpsl.Reader.scan_string text).objects;
        { irr;
          size_bytes = String.length text;
          n_aut_num = !n_aut_num;
          n_route = !n_route;
          n_import = !n_import;
          n_export = !n_export })
      dumps
  in
  let n_prefixes = Hashtbl.length by_prefix in
  let multi_object = ref 0 and multi_origin = ref 0 and multi_mnt = ref 0 in
  Hashtbl.iter
    (fun _ objects ->
      if List.length objects > 1 then begin
        incr multi_object;
        let origins = List.sort_uniq compare (List.map fst objects) in
        if List.length origins > 1 then incr multi_origin;
        let mnts = List.sort_uniq compare (List.map snd objects) in
        if List.length mnts > 1 then incr multi_mnt
      end)
    by_prefix;
  ( table1,
    { n_objects = !n_objects;
      n_prefix_origin = Hashtbl.length pairs;
      n_prefixes;
      multi_object_prefixes = !multi_object;
      multi_origin_prefixes = !multi_origin;
      multi_maintainer_prefixes = !multi_mnt } )

(* ---------------- as-set stats ---------------- *)

let as_set_stats_of db =
  let ir = Db.ir db in
  let stats =
    ref
      { n_sets = 0; empty = 0; singleton = 0; over_10k = 0; contains_any = 0;
        recursive = 0; with_loop = 0; depth_5_plus = 0 }
  in
  Hashtbl.iter
    (fun _ (set : Ir.as_set) ->
      let s = !stats in
      let n_direct = List.length set.member_asns + List.length set.member_sets in
      let recursive = set.member_sets <> [] in
      let flattened = Db.flatten_as_set db set.name in
      stats :=
        { n_sets = s.n_sets + 1;
          empty = (s.empty + if n_direct = 0 && not set.contains_any then 1 else 0);
          singleton =
            (s.singleton
             + if List.length set.member_asns = 1 && set.member_sets = [] then 1 else 0);
          over_10k = (s.over_10k + if Db.Asn_set.cardinal flattened > 10_000 then 1 else 0);
          contains_any = (s.contains_any + if set.contains_any then 1 else 0);
          recursive = (s.recursive + if recursive then 1 else 0);
          with_loop =
            (s.with_loop + if recursive && Db.as_set_has_loop db set.name then 1 else 0);
          depth_5_plus =
            (s.depth_5_plus + if recursive && Db.as_set_depth db set.name >= 5 then 1 else 0) })
    ir.Ir.as_sets;
  !stats

(* ---------------- errors ---------------- *)

let error_stats_of db =
  let ir = Db.ir db in
  List.fold_left
    (fun acc (e : Ir.error) ->
      match e.kind with
      | Ir.Syntax_error _ | Ir.Bad_origin _ | Ir.Bad_prefix _ ->
        { acc with syntax_errors = acc.syntax_errors + 1 }
      | Ir.Invalid_as_set_name ->
        { acc with invalid_as_set_names = acc.invalid_as_set_names + 1 }
      | Ir.Invalid_route_set_name ->
        { acc with invalid_route_set_names = acc.invalid_route_set_names + 1 }
      | Ir.Invalid_peering_set_name | Ir.Invalid_filter_set_name -> acc)
    { syntax_errors = 0; invalid_as_set_names = 0; invalid_route_set_names = 0 }
    ir.Ir.errors

(* ---------------- main ---------------- *)

let compute ~dumps db =
  let ir = Db.ir db in
  (* Figure 1 inputs. *)
  let rules_per_aut_num =
    Hashtbl.fold (fun asn an acc -> (asn, Ir.n_rules an) :: acc) ir.Ir.aut_nums []
    |> List.sort compare
  in
  let bgpq4_rules_per_aut_num =
    Hashtbl.fold
      (fun asn an acc -> (asn, Bgpq4_compat.compatible_rules an) :: acc)
      ir.Ir.aut_nums []
    |> List.sort compare
  in
  (* Peering simplicity and filter-shape histogram over all factors. *)
  let n_peerings = ref 0 and n_simple = ref 0 in
  let kinds : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let with_rules = ref 0 and bgpq4_only = ref 0 in
  Hashtbl.iter
    (fun _ (an : Ir.aut_num) ->
      let rules = an.imports @ an.exports in
      if rules <> [] then begin
        incr with_rules;
        if List.for_all Bgpq4_compat.rule_compatible rules then incr bgpq4_only
      end;
      List.iter
        (fun (pa : Ast.peering_action) ->
          incr n_peerings;
          if peering_is_simple pa.peering then incr n_simple)
        (List.concat_map Ast.rule_peerings rules);
      List.iter
        (fun (factor : Ast.factor) ->
          let kind = filter_kind factor.filter in
          Hashtbl.replace kinds kind (1 + Option.value ~default:0 (Hashtbl.find_opt kinds kind)))
        (List.concat_map Ast.rule_factors rules))
    ir.Ir.aut_nums;
  (* Table 2. *)
  let in_peering = fresh_refs () and in_filter = fresh_refs () in
  walk_rules ir ~in_peering ~in_filter;
  let union_count a b =
    let u = Hashtbl.copy a in
    Hashtbl.iter (fun k () -> Hashtbl.replace u k ()) b;
    Hashtbl.length u
  in
  let table2 =
    { defined_aut_num = Hashtbl.length ir.Ir.aut_nums;
      defined_as_set = Hashtbl.length ir.Ir.as_sets;
      defined_route_set = Hashtbl.length ir.Ir.route_sets;
      defined_peering_set = Hashtbl.length ir.Ir.peering_sets;
      defined_filter_set = Hashtbl.length ir.Ir.filter_sets;
      ref_overall_aut_num = union_count in_peering.aut_nums in_filter.aut_nums;
      ref_overall_as_set = union_count in_peering.as_sets in_filter.as_sets;
      ref_overall_route_set = union_count in_peering.route_sets in_filter.route_sets;
      ref_overall_peering_set = union_count in_peering.peering_sets in_filter.peering_sets;
      ref_overall_filter_set = union_count in_peering.filter_sets in_filter.filter_sets;
      ref_peering_aut_num = Hashtbl.length in_peering.aut_nums;
      ref_peering_as_set = Hashtbl.length in_peering.as_sets;
      ref_peering_peering_set = Hashtbl.length in_peering.peering_sets;
      ref_filter_aut_num = Hashtbl.length in_filter.aut_nums;
      ref_filter_as_set = Hashtbl.length in_filter.as_sets;
      ref_filter_route_set = Hashtbl.length in_filter.route_sets;
      ref_filter_filter_set = Hashtbl.length in_filter.filter_sets }
  in
  let table1, route_stats = raw_dump_stats dumps in
  { table1;
    rules_per_aut_num;
    bgpq4_rules_per_aut_num;
    peering_simple_fraction =
      (if !n_peerings = 0 then 0.0 else float_of_int !n_simple /. float_of_int !n_peerings);
    ases_bgpq4_only =
      (if !with_rules = 0 then 0.0 else float_of_int !bgpq4_only /. float_of_int !with_rules);
    filter_kind_histogram =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds [] |> List.sort compare;
    table2;
    route_stats;
    as_set_stats = as_set_stats_of db;
    error_stats = error_stats_of db }

let ccdf_rules per_as = Rz_util.Stats_util.ccdf (List.map snd per_as)
