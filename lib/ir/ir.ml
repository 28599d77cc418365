type aut_num = {
  asn : Rz_net.Asn.t;
  as_name : string;
  imports : Rz_policy.Ast.rule list;
  exports : Rz_policy.Ast.rule list;
  defaults : Rz_policy.Ast.default_rule list;
  member_of : string list;
  mnt_by : string list;
  source : string;
}

type mntner = {
  name : string;
  auth : string list;
  source : string;
}

type as_set = {
  name : string;
  member_asns : Rz_net.Asn.t list;
  member_sets : string list;
  contains_any : bool;
  mbrs_by_ref : string list;
  mnt_by : string list;
  source : string;
}

type route_set_member =
  | Rs_prefix of Rz_net.Prefix.t * Rz_net.Range_op.t
  | Rs_set of string * Rz_net.Range_op.t
  | Rs_asn of Rz_net.Asn.t * Rz_net.Range_op.t

type route_set = {
  name : string;
  members : route_set_member list;
  mbrs_by_ref : string list;
  mnt_by : string list;
  source : string;
}

type peering_set = {
  name : string;
  peerings : Rz_policy.Ast.peering list;
  source : string;
}

type filter_set = {
  name : string;
  filter : Rz_policy.Ast.filter;
  source : string;
}

type inet_rtr = {
  name : string;
  local_as : Rz_net.Asn.t option;
  ifaddrs : string list;
  bgp_peers : (string * Rz_net.Asn.t) list;
  rtr_member_of : string list;
  source : string;
}

type rtr_set = {
  name : string;
  members : string list;
  mbrs_by_ref : string list;
  source : string;
}

type route_obj = {
  prefix : Rz_net.Prefix.t;
  origin : Rz_net.Asn.t;
  member_of_ids : int list;
  mnt_by_ids : int list;
  source_id : int;
}

type error_kind =
  | Syntax_error of string
  | Invalid_as_set_name
  | Invalid_route_set_name
  | Invalid_peering_set_name
  | Invalid_filter_set_name
  | Bad_origin of string
  | Bad_prefix of string

type error = {
  kind : error_kind;
  cls : string;
  obj_name : string;
  source : string;
}

module Pool = Rz_intern.Intern.Pool
module Arena = Rz_intern.Intern.Arena

type t = {
  aut_nums : (Rz_net.Asn.t, aut_num) Hashtbl.t;
  mntners : (string, mntner) Hashtbl.t;
  inet_rtrs : (string, inet_rtr) Hashtbl.t;
  rtr_sets : (string, rtr_set) Hashtbl.t;
  as_sets : (string, as_set) Hashtbl.t;
  route_sets : (string, route_set) Hashtbl.t;
  peering_sets : (string, peering_set) Hashtbl.t;
  filter_sets : (string, filter_set) Hashtbl.t;
  pool : Pool.t;
  routes : route_obj Arena.t;
  route_seen : (Rz_net.Prefix.t * Rz_net.Asn.t, unit) Hashtbl.t;
  mutable errors : error list;
}

let create () =
  { aut_nums = Hashtbl.create 1024;
    mntners = Hashtbl.create 64;
    inet_rtrs = Hashtbl.create 32;
    rtr_sets = Hashtbl.create 16;
    as_sets = Hashtbl.create 256;
    route_sets = Hashtbl.create 256;
    peering_sets = Hashtbl.create 16;
    filter_sets = Hashtbl.create 16;
    pool = Pool.create ();
    routes = Arena.create ~capacity:1024 ();
    route_seen = Hashtbl.create 4096;
    errors = [] }

let copy t =
  { aut_nums = Hashtbl.copy t.aut_nums;
    mntners = Hashtbl.copy t.mntners;
    inet_rtrs = Hashtbl.copy t.inet_rtrs;
    rtr_sets = Hashtbl.copy t.rtr_sets;
    as_sets = Hashtbl.copy t.as_sets;
    route_sets = Hashtbl.copy t.route_sets;
    peering_sets = Hashtbl.copy t.peering_sets;
    filter_sets = Hashtbl.copy t.filter_sets;
    pool = Pool.copy t.pool;
    routes = Arena.copy t.routes;
    route_seen = Hashtbl.copy t.route_seen;
    errors = t.errors }

let intern t s = Pool.intern t.pool s
let resolve t id = Pool.resolve t.pool id

let route_source t (r : route_obj) = Pool.resolve t.pool r.source_id
let route_member_of t (r : route_obj) = List.map (Pool.resolve t.pool) r.member_of_ids
let route_mnt_by t (r : route_obj) = List.map (Pool.resolve t.pool) r.mnt_by_ids

(* Interns the string fields, records the (prefix, origin) identity in
   [route_seen], and appends. Callers gate on [route_seen] themselves
   when dedup semantics apply (lowering, streaming edits). *)
let add_route t ~prefix ~origin ~member_of ~mnt_by ~source =
  (* explicit lets pin the interning order (member-of, mnt-by, source):
     id assignment must be deterministic so snapshots and exports built
     from the same dumps are byte-identical *)
  let member_of_ids = List.map (Pool.intern t.pool) member_of in
  let mnt_by_ids = List.map (Pool.intern t.pool) mnt_by in
  let source_id = Pool.intern t.pool source in
  Hashtbl.replace t.route_seen (prefix, origin) ();
  Arena.push t.routes { prefix; origin; member_of_ids; mnt_by_ids; source_id }

let n_route_objs t = Arena.length t.routes
let iter_routes t f = Arena.iter t.routes f
let iter_routes_rev t f = Arena.iter_rev t.routes f
let fold_routes t ~init ~f = Arena.fold t.routes ~init ~f

(* The arena entries and the [route_seen] key go together, or a later
   add of the same pair would be swallowed. *)
let remove_route t ~prefix ~origin =
  let removed = ref [] in
  Arena.filter_in_place t.routes (fun r ->
      if r.origin = origin && Rz_net.Prefix.equal r.prefix prefix then begin
        removed := r :: !removed;
        false
      end
      else true);
  Hashtbl.remove t.route_seen (prefix, origin);
  List.rev !removed

let error_kind_to_string = function
  | Syntax_error msg -> "syntax error: " ^ msg
  | Invalid_as_set_name -> "invalid as-set name"
  | Invalid_route_set_name -> "invalid route-set name"
  | Invalid_peering_set_name -> "invalid peering-set name"
  | Invalid_filter_set_name -> "invalid filter-set name"
  | Bad_origin msg -> "bad origin: " ^ msg
  | Bad_prefix msg -> "bad prefix: " ^ msg

let n_rules an = List.length an.imports + List.length an.exports
let find_aut_num t asn = Hashtbl.find_opt t.aut_nums asn

let canon = Rz_rpsl.Set_name.canonical

let find_as_set t name = Hashtbl.find_opt t.as_sets (canon name)
let find_route_set t name = Hashtbl.find_opt t.route_sets (canon name)
let find_peering_set t name = Hashtbl.find_opt t.peering_sets (canon name)
let find_filter_set t name = Hashtbl.find_opt t.filter_sets (canon name)
let find_mntner t name = Hashtbl.find_opt t.mntners (Rz_util.Strings.uppercase name)
let find_inet_rtr t name = Hashtbl.find_opt t.inet_rtrs (Rz_util.Strings.lowercase name)
let find_rtr_set t name = Hashtbl.find_opt t.rtr_sets (Rz_util.Strings.uppercase name)
