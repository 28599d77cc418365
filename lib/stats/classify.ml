module Ast = Rz_policy.Ast
module Ir = Rz_ir.Ir

type style =
  | Unregistered
  | Silent
  | Open_policy
  | Provider_only
  | Simple
  | Expressive

type profile = {
  asn : Rz_net.Asn.t;
  style : style;
  n_rules : int;
  n_neighbors_declared : int;
  uses_sets : bool;
  multiprotocol : bool;
}

let style_to_string = function
  | Unregistered -> "unregistered"
  | Silent -> "silent"
  | Open_policy -> "open-policy"
  | Provider_only -> "provider-only"
  | Simple -> "simple"
  | Expressive -> "expressive"

let all_styles = [ Unregistered; Silent; Open_policy; Provider_only; Simple; Expressive ]

let names_set = function
  | Ast.As_set_ref _ | Ast.Route_set_ref _ | Ast.Filter_set_ref _ -> true
  | _ -> false

let classify_aut_num ?rels (an : Ir.aut_num) =
  let rules = an.imports @ an.exports in
  let n_rules = List.length rules in
  (* Structural facts about the aut-num's rules. *)
  let peer_leaves =
    List.concat_map
      (fun (pa : Ast.peering_action) ->
        match pa.peering with
        | Ast.Peering_spec { as_expr; _ } -> Ast.as_expr_leaves as_expr
        | Ast.Peering_set_ref _ -> [])
      (List.concat_map Ast.rule_peerings rules)
  in
  let neighbors =
    List.sort_uniq compare
      (List.filter_map (function Ast.Asn asn -> Some asn | _ -> None) peer_leaves)
  in
  let has_any_peering = List.mem Ast.Any_as peer_leaves in
  let uses_sets =
    List.exists
      (fun (factor : Ast.factor) -> List.exists names_set (Ast.filter_leaves factor.filter))
      (List.concat_map Ast.rule_factors rules)
  in
  let expressive = not (List.for_all Bgpq4_compat.rule_compatible rules) in
  let style =
    if n_rules = 0 then Silent
    else if expressive then Expressive
    else if has_any_peering && neighbors = [] then Open_policy
    else begin
      let provider_only =
        match rels with
        | Some rels ->
          neighbors <> []
          && (not has_any_peering)
          && List.for_all
               (fun n ->
                 Rz_asrel.Rel_db.relationship rels n an.asn
                 = Rz_asrel.Rel_db.A_provider_of_b)
               neighbors
          && Rz_asrel.Rel_db.customers rels an.asn <> []
        | None -> false
      in
      if provider_only then Provider_only else Simple
    end
  in
  { asn = an.asn;
    style;
    n_rules;
    n_neighbors_declared = List.length neighbors;
    uses_sets;
    multiprotocol = List.exists (fun (r : Ast.rule) -> r.multiprotocol) rules }

let classify_all ?rels ~observed db =
  List.map
    (fun asn ->
      match Rz_irr.Db.find_aut_num db asn with
      | Some an -> classify_aut_num ?rels an
      | None ->
        { asn; style = Unregistered; n_rules = 0; n_neighbors_declared = 0;
          uses_sets = false; multiprotocol = false })
    observed

let histogram profiles =
  List.map
    (fun style ->
      (style, List.length (List.filter (fun p -> p.style = style) profiles)))
    all_styles
