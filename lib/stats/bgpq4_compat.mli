(** Classifier for BGPq4 compatibility (paper Section 4): BGPq4 resolves
    only single-term filters — no filter-sets, AS-path regexes, BGP
    communities, Composite Policy Filters (AND/OR/NOT), and no Structured
    Policies (refine/except). *)

val rule_compatible : Rz_policy.Ast.rule -> bool

val compatible_rules : Rz_ir.Ir.aut_num -> int
(** Number of this aut-num's rules BGPq4 could process. *)
