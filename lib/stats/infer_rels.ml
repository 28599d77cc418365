module Ast = Rz_policy.Ast
module Ir = Rz_ir.Ir
module Rel_db = Rz_asrel.Rel_db

type evidence = {
  asn : Rz_net.Asn.t;
  neighbor : Rz_net.Asn.t;
  accepts_any : bool;
  announces_any : bool;
}

(* Plain single-ASN peerings only: composite peerings don't identify one
   neighbor. *)
let factor_neighbors (factor : Ast.factor) =
  List.filter_map
    (fun (pa : Ast.peering_action) ->
      match pa.peering with
      | Ast.Peering_spec { as_expr = Ast.Asn n; _ } -> Some n
      | _ -> None)
    factor.peerings

let rec filter_is_any = function
  | Ast.Any -> true
  | Ast.And_f (a, b) -> filter_is_any a && filter_is_any b
  | Ast.Or_f (a, b) -> filter_is_any a || filter_is_any b
  | _ -> false

let link_evidence db =
  let ir = Rz_irr.Db.ir db in
  let table : (Rz_net.Asn.t * Rz_net.Asn.t, evidence) Hashtbl.t = Hashtbl.create 512 in
  let note asn neighbor ~import ~any =
    let key = (asn, neighbor) in
    let existing =
      Option.value
        ~default:{ asn; neighbor; accepts_any = false; announces_any = false }
        (Hashtbl.find_opt table key)
    in
    let updated =
      if import then { existing with accepts_any = existing.accepts_any || any }
      else { existing with announces_any = existing.announces_any || any }
    in
    Hashtbl.replace table key updated
  in
  Hashtbl.iter
    (fun asn (an : Ir.aut_num) ->
      let scan ~import rule =
        List.iter
          (fun (factor : Ast.factor) ->
            let any = filter_is_any factor.filter in
            List.iter (fun neighbor -> note asn neighbor ~import ~any) (factor_neighbors factor))
          (Ast.rule_factors rule)
      in
      List.iter (scan ~import:true) an.imports;
      List.iter (scan ~import:false) an.exports)
    ir.aut_nums;
  Hashtbl.fold (fun _ e acc -> e :: acc) table []

(* One-sided classification of the declaring AS's view of the link. *)
type view = Sees_provider | Sees_customer | Sees_peer

let classify (e : evidence) =
  match (e.accepts_any, e.announces_any) with
  | true, false -> Some Sees_provider   (* accept everything, send own routes *)
  | false, true -> Some Sees_customer   (* send everything, accept their routes *)
  | false, false -> Some Sees_peer      (* selective both ways *)
  | true, true -> None                  (* open policy: no signal *)

let infer db =
  let rels = Rel_db.create () in
  let views : (Rz_net.Asn.t * Rz_net.Asn.t, view) Hashtbl.t = Hashtbl.create 512 in
  List.iter
    (fun e ->
      match classify e with
      | Some v -> Hashtbl.replace views (e.asn, e.neighbor) v
      | None -> ())
    (link_evidence db);
  let decided = Hashtbl.create 512 in
  Hashtbl.iter
    (fun (a, b) view_ab ->
      let key = if a < b then (a, b) else (b, a) in
      if not (Hashtbl.mem decided key) then begin
        Hashtbl.replace decided key ();
        let view_ba = Hashtbl.find_opt views (b, a) in
        let relationship =
          match (view_ab, view_ba) with
          | Sees_provider, (Some Sees_customer | None) -> `P2c (b, a)
          | Sees_customer, (Some Sees_provider | None) -> `P2c (a, b)
          | Sees_peer, (Some Sees_peer | None) -> `P2p
          | Sees_provider, Some Sees_provider | Sees_customer, Some Sees_customer ->
            `P2p (* contradictory claims: fall back to peer *)
          | Sees_peer, Some Sees_provider -> `P2c (a, b)
          | Sees_peer, Some Sees_customer -> `P2c (b, a)
          | Sees_provider, Some Sees_peer -> `P2c (b, a)
          | Sees_customer, Some Sees_peer -> `P2c (a, b)
        in
        match relationship with
        | `P2c (provider, customer) -> Rel_db.add_p2c rels ~provider ~customer
        | `P2p -> Rel_db.add_p2p rels a b
      end)
    views;
  rels

type accuracy = {
  inferred : int;
  checked : int;
  correct : int;
}

let accuracy ~truth inferred_db =
  let inferred = ref 0 and checked = ref 0 and correct = ref 0 in
  let seen = Hashtbl.create 512 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let key = if a < b then (a, b) else (b, a) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            incr inferred;
            match Rel_db.relationship truth a b with
            | Rel_db.Unknown -> ()
            | truth_rel ->
              incr checked;
              if Rel_db.relationship inferred_db a b = truth_rel then incr correct
          end)
        (Rel_db.neighbors inferred_db a))
    (Rel_db.ases inferred_db);
  { inferred = !inferred; checked = !checked; correct = !correct }
