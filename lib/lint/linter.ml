module Db = Rz_irr.Db
module Ir = Rz_ir.Ir
module Ast = Rz_policy.Ast
module Rel_db = Rz_asrel.Rel_db

type severity = Error | Warning | Suggestion

type check =
  | Invalid_set_name
  | Reserved_word_member
  | Empty_set
  | Singleton_set
  | Set_loop
  | Deep_set
  | Huge_set
  | Unknown_member
  | Export_self_misuse
  | Import_customer_misuse
  | Filter_without_routes
  | Zero_rules
  | Missing_direction
  | Asn_filter_could_be_route_set
  | Unreferenced_set
  | Undeclared_neighbor
  | Private_asn_leak
  | Dangling_maintainer

type diagnostic = {
  check : check;
  severity : severity;
  cls : string;
  obj : string;
  message : string;
}

let check_to_string = function
  | Invalid_set_name -> "invalid-set-name"
  | Reserved_word_member -> "reserved-word-member"
  | Empty_set -> "empty-set"
  | Singleton_set -> "singleton-set"
  | Set_loop -> "set-loop"
  | Deep_set -> "deep-set"
  | Huge_set -> "huge-set"
  | Unknown_member -> "unknown-member"
  | Export_self_misuse -> "export-self-misuse"
  | Import_customer_misuse -> "import-customer-misuse"
  | Filter_without_routes -> "filter-without-routes"
  | Zero_rules -> "zero-rules"
  | Missing_direction -> "missing-direction"
  | Asn_filter_could_be_route_set -> "asn-filter-could-be-route-set"
  | Unreferenced_set -> "unreferenced-set"
  | Undeclared_neighbor -> "undeclared-neighbor"
  | Private_asn_leak -> "private-asn-leak"
  | Dangling_maintainer -> "dangling-maintainer"

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Suggestion -> "suggestion"

let diagnostic_to_string d =
  Printf.sprintf "%s: %s %s: [%s] %s" (severity_to_string d.severity) d.cls d.obj
    (check_to_string d.check) d.message

let severity_rank = function Error -> 0 | Warning -> 1 | Suggestion -> 2

(* ---------------- per-check helpers ---------------- *)

let diag check severity cls obj fmt =
  Printf.ksprintf (fun message -> { check; severity; cls; obj; message }) fmt

(* References collected from all rules, to drive the unreferenced-set and
   undeclared-neighbor checks. *)
type refs = {
  sets : (string, unit) Hashtbl.t;      (* canonical names of referenced sets *)
  neighbors_of : (Rz_net.Asn.t, Rz_net.Asn.t list) Hashtbl.t;
      (* ASNs referenced in each aut-num's peerings *)
}

let canon = Rz_rpsl.Set_name.canonical

let collect_refs (ir : Ir.t) =
  let refs = { sets = Hashtbl.create 256; neighbors_of = Hashtbl.create 256 } in
  let add_set name = Hashtbl.replace refs.sets (canon name) () in
  let scan_filter_leaf = function
    | Ast.As_set_ref (name, _) | Ast.Route_set_ref (name, _) | Ast.Filter_set_ref name ->
      add_set name
    | Ast.Path_regex regex ->
      List.iter
        (function Rz_aspath.Regex_ast.As_set name -> add_set name | _ -> ())
        (Rz_aspath.Regex_ast.terms regex)
    | _ -> ()
  in
  Hashtbl.iter
    (fun asn (an : Ir.aut_num) ->
      let rules = an.imports @ an.exports in
      let peer_asns = ref [] in
      List.iter
        (fun (pa : Ast.peering_action) ->
          match pa.peering with
          | Ast.Peering_spec { as_expr; _ } ->
            List.iter
              (function
                | Ast.Asn asn -> peer_asns := asn :: !peer_asns
                | Ast.As_set name -> add_set name
                | _ -> ())
              (Ast.as_expr_leaves as_expr)
          | Ast.Peering_set_ref name -> add_set name)
        (List.concat_map Ast.rule_peerings rules);
      List.iter
        (fun (factor : Ast.factor) -> List.iter scan_filter_leaf (Ast.filter_leaves factor.filter))
        (List.concat_map Ast.rule_factors rules);
      Hashtbl.replace refs.neighbors_of asn (List.sort_uniq compare !peer_asns))
    ir.aut_nums;
  refs

(* ---------------- set checks ---------------- *)

let lint_as_set db (s : Ir.as_set) =
  let out = ref [] in
  let add d = out := d :: !out in
  if not (Rz_rpsl.Set_name.is_valid Rz_rpsl.Set_name.As_set s.name) then
    add (diag Invalid_set_name Error "as-set" s.name
           "name must be colon-separated ASNs and AS- components; rename the set");
  if s.contains_any then
    add (diag Reserved_word_member Error "as-set" s.name
           "the reserved word ANY is not a valid member; remove it");
  let n_direct = List.length s.member_asns + List.length s.member_sets in
  if n_direct = 0 && not s.contains_any && s.mbrs_by_ref = [] then
    add (diag Empty_set Warning "as-set" s.name
           "set has no members; using it in a rule matches nothing");
  if List.length s.member_asns = 1 && s.member_sets = [] then
    add (diag Singleton_set Suggestion "as-set" s.name
           "set has a single member %s; reference the ASN directly"
           (Rz_net.Asn.to_string (List.hd s.member_asns)));
  if s.member_sets <> [] && Db.as_set_has_loop db s.name then
    add (diag Set_loop Warning "as-set" s.name
           "membership graph contains a cycle; flatten or break the loop");
  let depth = Db.as_set_depth db s.name in
  if depth >= 5 then
    add (diag Deep_set Warning "as-set" s.name
           "nesting depth %d makes manual tracking error-prone; flatten the hierarchy"
           depth);
  if Db.Asn_set.cardinal (Db.flatten_as_set db s.name) > 10_000 then
    add (diag Huge_set Warning "as-set" s.name
           "set flattens to more than 10,000 ASNs; filters built from it will be enormous");
  List.iter
    (fun child ->
      if not (Db.as_set_exists db child) then
        add (diag Unknown_member Error "as-set" s.name
               "member %s is not defined in any IRR" child))
    s.member_sets;
  !out

let lint_route_set db (s : Ir.route_set) =
  let out = ref [] in
  let add d = out := d :: !out in
  if not (Rz_rpsl.Set_name.is_valid Rz_rpsl.Set_name.Route_set s.name) then
    add (diag Invalid_set_name Error "route-set" s.name
           "name must be colon-separated ASNs and RS- components; rename the set");
  if s.members = [] && s.mbrs_by_ref = [] then
    add (diag Empty_set Warning "route-set" s.name "set has no members");
  List.iter
    (function
      | Ir.Rs_set (child, _)
        when not (Db.route_set_exists db child || Db.as_set_exists db child) ->
        add (diag Unknown_member Error "route-set" s.name
               "member %s is not defined in any IRR" child)
      | _ -> ())
    s.members;
  !out

(* ---------------- aut-num checks ---------------- *)

(* A transit AS whose export filter toward a provider/peer is its own bare
   ASN almost certainly means "me and my customers" (paper Section 5.1.1). *)
let rule_filters rule = List.map (fun (f : Ast.factor) -> f.filter) (Ast.rule_factors rule)

(* The ASNs the rule's peerings name; each peering's last-named first. *)
let rule_peering_asns rule =
  List.concat_map
    (fun (pa : Ast.peering_action) ->
      match pa.peering with
      | Ast.Peering_spec { as_expr; _ } ->
        List.fold_left
          (fun acc -> function Ast.Asn asn -> asn :: acc | _ -> acc)
          [] (Ast.as_expr_leaves as_expr)
      | Ast.Peering_set_ref _ -> [])
    (Ast.rule_peerings rule)

let lint_aut_num db rels refs (an : Ir.aut_num) =
  let out = ref [] in
  let add d = out := d :: !out in
  let name = Rz_net.Asn.to_string an.asn in
  if an.imports = [] && an.exports = [] then
    add (diag Zero_rules Warning "aut-num" name
           "no import/export rules; neighbors cannot build filters from this object")
  else if an.imports = [] then
    add (diag Missing_direction Warning "aut-num" name "exports declared but no imports")
  else if an.exports = [] then
    add (diag Missing_direction Warning "aut-num" name "imports declared but no exports");
  (* filter-level checks *)
  List.iter
    (fun (rule : Ast.rule) ->
      List.iter
        (fun filter ->
          match filter with
          | Ast.As_num (asn, _) ->
            if not (Db.origin_has_routes db asn) then
              add (diag Filter_without_routes Warning "aut-num" name
                     "filter references %s which originates no route objects"
                     (Rz_net.Asn.to_string asn))
            else if rule.direction = `Import then
              add (diag Asn_filter_could_be_route_set Suggestion "aut-num" name
                     "filter %s depends on the neighbor's route objects; a route-set \
                      names the prefixes directly and supports per-neighbor sets"
                     (Rz_net.Asn.to_string asn))
          | Ast.As_set_ref (set, _) when not (Db.as_set_exists db set) ->
            add (diag Unknown_member Error "aut-num" name
                   "filter references undefined as-set %s" set)
          | Ast.Route_set_ref (set, _) when not (Db.route_set_exists db set) ->
            add (diag Unknown_member Error "aut-num" name
                   "filter references undefined route-set %s" set)
          | _ -> ())
        (rule_filters rule);
      List.iter
        (fun asn ->
          if Rz_net.Asn.is_private asn || Rz_net.Asn.is_reserved asn then
            add (diag Private_asn_leak Warning "aut-num" name
                   "peering references private/reserved %s" (Rz_net.Asn.to_string asn)))
        (rule_peering_asns rule))
    (an.imports @ an.exports);
  (* relationship-dependent checks *)
  (match rels with
   | None -> ()
   | Some rels ->
     let customers = Rel_db.customers rels an.asn in
     let is_transit = customers <> [] in
     if is_transit then begin
       (* export-self: an export rule whose filter is the bare own ASN *)
       List.iter
         (fun (rule : Ast.rule) ->
           List.iter
             (fun filter ->
               match filter with
               | Ast.As_num (asn, _) when asn = an.asn ->
                 add (diag Export_self_misuse Warning "aut-num" name
                        "transit AS announces only itself; if customer routes are \
                         also exported, announce an as-set or route-set covering \
                         the customer cone")
               | _ -> ())
             (rule_filters rule))
         an.exports;
       (* import-customer: from C accept C with transit customer C *)
       List.iter
         (fun (rule : Ast.rule) ->
           let peers = rule_peering_asns rule in
           List.iter
             (fun filter ->
               match filter with
               | Ast.As_num (asn, _)
                 when List.mem asn peers
                      && List.mem asn customers
                      && Rel_db.customers rels asn <> [] ->
                 add (diag Import_customer_misuse Warning "aut-num" name
                        "accepting only %s's own prefixes from transit customer %s; \
                         its customers' routes would be rejected — accept its cone \
                         set or ANY"
                        (Rz_net.Asn.to_string asn) (Rz_net.Asn.to_string asn))
               | _ -> ())
             (rule_filters rule))
         an.imports;
       ()
     end;
     (* undeclared neighbors: the dominant cause of unverified hops *)
     if an.imports <> [] || an.exports <> [] then begin
       let declared =
         Option.value ~default:[] (Hashtbl.find_opt refs.neighbors_of an.asn)
       in
       let has_any =
         List.exists
           (fun (pa : Ast.peering_action) ->
             match pa.peering with
             | Ast.Peering_spec { as_expr = Ast.Any_as; _ } -> true
             | _ -> false)
           (List.concat_map Ast.rule_peerings (an.imports @ an.exports))
       in
       if not has_any then
         List.iter
           (fun neighbor ->
             if not (List.mem neighbor declared) then
               add (diag Undeclared_neighbor Suggestion "aut-num" name
                      "no rule covers neighbor %s; routes over that session cannot \
                       be verified"
                      (Rz_net.Asn.to_string neighbor)))
           (Rel_db.neighbors rels an.asn)
     end);
  !out

(* ---------------- whole-database lint ---------------- *)

let sort_diags diags =
  List.sort
    (fun a b ->
      let c = compare (severity_rank a.severity) (severity_rank b.severity) in
      if c <> 0 then c
      else
        let c = compare a.cls b.cls in
        if c <> 0 then c else compare a.obj b.obj)
    diags

let lint ?rels db =
  let ir = Db.ir db in
  let refs = collect_refs ir in
  let out = ref [] in
  (* dangling maintainers — meaningful only when the dumps carry mntner
     objects at all *)
  if Hashtbl.length ir.mntners > 0 then
    Hashtbl.iter
      (fun _ (an : Ir.aut_num) ->
        List.iter
          (fun mnt ->
            if Ir.find_mntner ir mnt = None then
              out :=
                diag Dangling_maintainer Warning "aut-num" (Rz_net.Asn.to_string an.asn)
                  "mnt-by references undefined maintainer %s" mnt
                :: !out)
          an.mnt_by)
      ir.aut_nums;
  Hashtbl.iter (fun _ s -> out := lint_as_set db s @ !out) ir.as_sets;
  Hashtbl.iter (fun _ s -> out := lint_route_set db s @ !out) ir.route_sets;
  Hashtbl.iter (fun _ an -> out := lint_aut_num db rels refs an @ !out) ir.aut_nums;
  (* unreferenced sets *)
  Hashtbl.iter
    (fun key (s : Ir.as_set) ->
      if not (Hashtbl.mem refs.sets key) then
        out :=
          diag Unreferenced_set Suggestion "as-set" s.name
            "defined but never referenced by any rule"
          :: !out)
    ir.as_sets;
  Hashtbl.iter
    (fun key (s : Ir.route_set) ->
      if not (Hashtbl.mem refs.sets key) then
        out :=
          diag Unreferenced_set Suggestion "route-set" s.name
            "defined but never referenced by any rule"
          :: !out)
    ir.route_sets;
  sort_diags !out

let lint_object db ~cls ~name =
  let ir = Db.ir db in
  let refs = collect_refs ir in
  let diags =
    match cls with
    | "as-set" ->
      (match Ir.find_as_set ir name with Some s -> lint_as_set db s | None -> [])
    | "route-set" ->
      (match Ir.find_route_set ir name with Some s -> lint_route_set db s | None -> [])
    | "aut-num" ->
      (match Result.to_option (Rz_net.Asn.of_string name) with
       | Some asn ->
         (match Ir.find_aut_num ir asn with
          | Some an -> lint_aut_num db None refs an
          | None -> [])
       | None -> [])
    | _ -> []
  in
  sort_diags diags
