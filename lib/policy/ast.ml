type as_expr =
  | Asn of Rz_net.Asn.t
  | As_set of string
  | Any_as
  | And of as_expr * as_expr
  | Or of as_expr * as_expr
  | Except_as of as_expr * as_expr

type router_expr =
  | Rtr_addr of string
  | Rtr_name of string
  | Rtr_set of string
  | Rtr_and of router_expr * router_expr
  | Rtr_or of router_expr * router_expr
  | Rtr_except of router_expr * router_expr

type peering =
  | Peering_set_ref of string
  | Peering_spec of {
      as_expr : as_expr;
      remote_router : router_expr option;
      local_router : router_expr option;
    }

type action =
  | Assign of string * string
  | Append_op of string * string list
  | Method_call of string * string * string list

type filter =
  | Any
  | Peer_as_filter
  | As_num of Rz_net.Asn.t * Rz_net.Range_op.t
  | As_set_ref of string * Rz_net.Range_op.t
  | Route_set_ref of string * Rz_net.Range_op.t
  | Filter_set_ref of string
  | Prefix_set of (Rz_net.Prefix.t * Rz_net.Range_op.t) list * Rz_net.Range_op.t
  | Path_regex of Rz_aspath.Regex_ast.t
  | Community of string * string list
  | Fltr_martian
  | And_f of filter * filter
  | Or_f of filter * filter
  | Not_f of filter

type peering_action = { peering : peering; actions : action list }
type factor = { peerings : peering_action list; filter : filter }
type term = { afi : Rz_net.Afi.t list; factors : factor list }

type expr =
  | Term_e of term
  | Except_e of term * expr
  | Refine_e of term * expr

type default_rule = {
  peering : peering;
  actions : action list;
  networks : filter option;
  multiprotocol : bool;
  afi : Rz_net.Afi.t list;
}

type rule = {
  direction : [ `Import | `Export ];
  multiprotocol : bool;
  protocol : string option;
  into_protocol : string option;
  expr : expr;
}

let rec as_expr_to_string = function
  | Asn n -> Rz_net.Asn.to_string n
  | As_set s -> s
  | Any_as -> "AS-ANY"
  | And (a, b) -> Printf.sprintf "(%s AND %s)" (as_expr_to_string a) (as_expr_to_string b)
  | Or (a, b) -> Printf.sprintf "(%s OR %s)" (as_expr_to_string a) (as_expr_to_string b)
  | Except_as (a, b) ->
    Printf.sprintf "(%s EXCEPT %s)" (as_expr_to_string a) (as_expr_to_string b)

let rec router_expr_to_string = function
  | Rtr_addr a -> a
  | Rtr_name n -> n
  | Rtr_set s -> s
  | Rtr_and (a, b) ->
    Printf.sprintf "(%s AND %s)" (router_expr_to_string a) (router_expr_to_string b)
  | Rtr_or (a, b) ->
    Printf.sprintf "(%s OR %s)" (router_expr_to_string a) (router_expr_to_string b)
  | Rtr_except (a, b) ->
    Printf.sprintf "(%s EXCEPT %s)" (router_expr_to_string a) (router_expr_to_string b)

let peering_to_string = function
  | Peering_set_ref name -> name
  | Peering_spec { as_expr; remote_router; local_router } ->
    String.concat ""
      [ as_expr_to_string as_expr;
        (match remote_router with Some r -> " " ^ router_expr_to_string r | None -> "");
        (match local_router with Some r -> " at " ^ router_expr_to_string r | None -> "") ]

let action_to_string = function
  | Assign (k, v) -> Printf.sprintf "%s = %s" k v
  | Append_op (k, vs) -> Printf.sprintf "%s .= {%s}" k (String.concat ", " vs)
  | Method_call (attr, meth, args) ->
    Printf.sprintf "%s.%s(%s)" attr meth (String.concat ", " args)

let member_to_string (p, op) =
  Rz_net.Prefix.to_string p ^ Rz_net.Range_op.to_string op

let rec filter_to_string = function
  | Any -> "ANY"
  | Peer_as_filter -> "PeerAS"
  | As_num (n, op) -> Rz_net.Asn.to_string n ^ Rz_net.Range_op.to_string op
  | As_set_ref (s, op) -> s ^ Rz_net.Range_op.to_string op
  | Route_set_ref (s, op) -> s ^ Rz_net.Range_op.to_string op
  | Filter_set_ref s -> s
  | Prefix_set (members, op) ->
    Printf.sprintf "{%s}%s"
      (String.concat ", " (List.map member_to_string members))
      (Rz_net.Range_op.to_string op)
  | Path_regex r -> Printf.sprintf "<%s>" (Rz_aspath.Regex_ast.to_string r)
  | Community (meth, args) ->
    if meth = "" then Printf.sprintf "community(%s)" (String.concat ", " args)
    else Printf.sprintf "community.%s(%s)" meth (String.concat ", " args)
  | Fltr_martian -> "fltr-martian"
  | And_f (a, b) -> Printf.sprintf "(%s AND %s)" (filter_to_string a) (filter_to_string b)
  | Or_f (a, b) -> Printf.sprintf "(%s OR %s)" (filter_to_string a) (filter_to_string b)
  | Not_f a -> Printf.sprintf "NOT %s" (filter_to_string a)

let factor_to_string ~keyword ~verb (f : factor) =
  let pa (pa : peering_action) =
    Printf.sprintf "%s %s%s" keyword
      (peering_to_string pa.peering)
      (match pa.actions with
       | [] -> ""
       | acts ->
         " action " ^ String.concat "; " (List.map action_to_string acts) ^ ";")
  in
  Printf.sprintf "%s %s %s"
    (String.concat " " (List.map pa f.peerings))
    verb (filter_to_string f.filter)

let term_to_string ~keyword ~verb (t : term) =
  let afi_prefix =
    match t.afi with
    | [] -> ""
    | afis ->
      "afi " ^ String.concat ", " (List.map Rz_net.Afi.to_string afis) ^ " "
  in
  match t.factors with
  | [ single ] -> afi_prefix ^ factor_to_string ~keyword ~verb single
  | factors ->
    afi_prefix ^ "{ "
    ^ String.concat "; " (List.map (factor_to_string ~keyword ~verb) factors)
    ^ "; }"

let rec expr_to_string ~keyword ~verb = function
  | Term_e t -> term_to_string ~keyword ~verb t
  | Except_e (t, rest) ->
    term_to_string ~keyword ~verb t ^ " EXCEPT " ^ expr_to_string ~keyword ~verb rest
  | Refine_e (t, rest) ->
    term_to_string ~keyword ~verb t ^ " REFINE " ^ expr_to_string ~keyword ~verb rest

let default_rule_to_string (d : default_rule) =
  let attr = if d.multiprotocol then "mp-default" else "default" in
  let afi_prefix =
    match d.afi with
    | [] -> ""
    | afis -> "afi " ^ String.concat ", " (List.map Rz_net.Afi.to_string afis) ^ " "
  in
  String.concat ""
    [ attr; ": "; afi_prefix; "to "; peering_to_string d.peering;
      (match d.actions with
       | [] -> ""
       | acts -> " action " ^ String.concat "; " (List.map action_to_string acts) ^ ";");
      (match d.networks with
       | None -> ""
       | Some f -> " networks " ^ filter_to_string f) ]

let rule_to_string rule =
  let keyword, verb =
    match rule.direction with `Import -> ("from", "accept") | `Export -> ("to", "announce")
  in
  let attr =
    match (rule.direction, rule.multiprotocol) with
    | `Import, false -> "import"
    | `Import, true -> "mp-import"
    | `Export, false -> "export"
    | `Export, true -> "mp-export"
  in
  let protocol =
    match rule.protocol with Some p -> Printf.sprintf "protocol %s " p | None -> ""
  in
  let into =
    match rule.into_protocol with Some p -> Printf.sprintf "into %s " p | None -> ""
  in
  Printf.sprintf "%s: %s%s%s" attr protocol into (expr_to_string ~keyword ~verb rule.expr)

let rule_factors (rule : rule) =
  let rec go = function
    | Term_e t -> t.factors
    | Except_e (t, rest) | Refine_e (t, rest) -> t.factors @ go rest
  in
  go rule.expr

let rule_peerings rule =
  List.concat_map (fun (f : factor) -> f.peerings) (rule_factors rule)

(* Both leaf walks visit right to left onto an accumulator, so the list
   comes out left to right without a reversal. *)
let filter_leaves filter =
  let rec go acc = function
    | And_f (a, b) | Or_f (a, b) -> go (go acc b) a
    | Not_f a -> go acc a
    | leaf -> leaf :: acc
  in
  go [] filter

let as_expr_leaves expr =
  let rec go acc = function
    | And (a, b) | Or (a, b) | Except_as (a, b) -> go (go acc b) a
    | leaf -> leaf :: acc
  in
  go [] expr
