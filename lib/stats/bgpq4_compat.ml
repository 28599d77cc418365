module Ast = Rz_policy.Ast

let filter_compatible = function
  | Ast.Any | Ast.Peer_as_filter | Ast.As_num _ | Ast.As_set_ref _
  | Ast.Route_set_ref _ | Ast.Prefix_set _ -> true
  | Ast.Filter_set_ref _ | Ast.Path_regex _ | Ast.Community _ | Ast.Fltr_martian
  | Ast.And_f _ | Ast.Or_f _ | Ast.Not_f _ -> false

let rule_compatible (rule : Ast.rule) =
  match rule.expr with
  | Ast.Term_e _ ->
    List.for_all (fun (f : Ast.factor) -> filter_compatible f.filter) (Ast.rule_factors rule)
  | Ast.Except_e _ | Ast.Refine_e _ -> false

let compatible_rules (an : Rz_ir.Ir.aut_num) =
  List.length (List.filter rule_compatible an.imports)
  + List.length (List.filter rule_compatible an.exports)
