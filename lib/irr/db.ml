module Asn_set = Set.Make (Int)

let canon = Rz_rpsl.Set_name.canonical

(* Observability: index-build volume and memo-table effectiveness. The
   hit/miss pair only tracks top-level flattening calls (recursive
   descents inside one flatten are part of the same miss). *)
let c_trie_inserts = Rz_obs.Obs.Counter.make "irr.trie_inserts_total"
let c_as_flat_hits = Rz_obs.Obs.Counter.make "irr.as_flat.hits"
let c_as_flat_misses = Rz_obs.Obs.Counter.make "irr.as_flat.misses"
let c_rs_flat_hits = Rz_obs.Obs.Counter.make "irr.rs_flat.hits"
let c_rs_flat_misses = Rz_obs.Obs.Counter.make "irr.rs_flat.misses"
let c_flatten_truncated = Rz_obs.Obs.Counter.make "flatten.truncated"

(* Hostile-input bounds on recursive set resolution. Registry data is
   adversarial: a chain of 10^6 nested as-sets (or a handful of sets whose
   cross-products duplicate members combinatorially) would otherwise turn
   flattening into a stack overflow or an O(depth^2) [List.mem] crawl. The
   paper's characterization puts real nesting depth in single digits
   (depth >= 5 is already flagged as an anomaly), so the caps below are
   generous for legitimate data and tight against bombs. A capped flatten
   returns the partial result gathered so far and records a truncation
   marker — verification stays conservative (missing members can only
   move routes toward Unverified, never fabricate a Verified). *)
let max_flatten_depth = 64
let max_flatten_work = 10_000
let max_route_set_members = 200_000

(* A policy-object change, named by the object that changed; see db.mli. *)
type edit =
  | Edit_aut_num of Rz_net.Asn.t
  | Edit_set of string
  | Edit_route of Rz_net.Prefix.t * Rz_net.Asn.t

(* What [patch] needs to find the memo entries an edit reaches: the set
   reference graph both ways, and which route-sets read which origins'
   route objects. Built by the first [patch] from the IR as it then is,
   and kept current by every later one. *)
type graph = {
  refs : (string, string list) Hashtbl.t;  (* [referenced_sets], per set *)
  parents : (string, string list) Hashtbl.t;  (* reverse of [refs] *)
  rs_asns : (string, Rz_net.Asn.t list) Hashtbl.t;  (* route-set [Rs_asn] members *)
  asn_readers : (Rz_net.Asn.t, string list) Hashtbl.t;  (* reverse of [rs_asns] *)
  rs_sets : (string, string list) Hashtbl.t;  (* route-set [Rs_set] members *)
}

(* What one walk resolves of an as-set: its transitive ASN members, its
   nesting depth, and whether a reference cycle is reachable from it. *)
type as_answer = { members : Asn_set.t; depth : int; loop : bool }

(* A memo entry. A [shared] one is the same for every caller, so any walk
   may reuse it; any other answers only a top-level query of its set. *)
type 'a entry = { value : 'a; shared : bool }

(* Aut-num [member-of] claims, both ways, as last indexed. *)
type claims = {
  by_asn : (Rz_net.Asn.t, string list) Hashtbl.t;
  by_set : (string, Rz_net.Asn.t list) Hashtbl.t;
}

type t = {
  ir : Rz_ir.Ir.t;
  route_trie : Rz_net.Asn.t Rz_net.Prefix_trie.t;
  by_origin : (Rz_net.Asn.t, Rz_net.Prefix.t list) Hashtbl.t;
  (* Indirect members via member-of, grouped by target set (canonical). *)
  indirect_as_members : (string, Rz_net.Asn.t list) Hashtbl.t;
  indirect_route_members : (string, (Rz_net.Prefix.t * Rz_net.Range_op.t) list) Hashtbl.t;
  (* Memo tables, keyed by canonical set name. *)
  as_memo : (string, as_answer entry) Hashtbl.t;
  rs_memo : (string, (Rz_net.Prefix.t * Rz_net.Range_op.t) list entry) Hashtbl.t;
  (* Canonical names of sets whose flattening hit a bound above. Written
     only while memo tables are being filled (i.e. before [warm_caches]
     completes) or by [patch] (single owner only), so reads after warming
     are safe across domains. *)
  flatten_trunc : (string, unit) Hashtbl.t;
  (* Reverse indexes for [patch], each made on first use, so [build]
     does no work for them. *)
  mutable graph : graph option;
  mutable claims : claims option;
  mutable member_routes : Rz_ir.Ir.route_obj list option;
      (* route objects with a [member-of], oldest first *)
}

let mark_truncated t key =
  if not (Hashtbl.mem t.flatten_trunc key) then begin
    Hashtbl.replace t.flatten_trunc key ();
    Rz_obs.Obs.Counter.incr c_flatten_truncated
  end

let flatten_truncated t name = Hashtbl.mem t.flatten_trunc (canon name)

let truncated_sets t =
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) t.flatten_trunc [])

let ir t = t.ir

let priority_order =
  [ "APNIC"; "AFRINIC"; "ARIN"; "LACNIC"; "RIPE"; "IDNIC"; "JPIRR"; "RADB";
    "NTTCOM"; "LEVEL3"; "TC"; "REACH"; "ALTDB" ]

(* mbrs-by-ref authorizes indirect membership when it lists one of the
   member object's maintainers, or the keyword ANY. *)
let mbrs_by_ref_allows (set_mbrs : string list) (member_mnt : string list) =
  List.exists
    (fun m ->
      Rz_util.Strings.equal_ci m "ANY"
      || List.exists (Rz_util.Strings.equal_ci m) member_mnt)
    set_mbrs

let build (ir : Rz_ir.Ir.t) =
  Rz_obs.Obs.Span.with_ "db-build" (fun () ->
  let route_trie = Rz_net.Prefix_trie.create () in
  let by_origin = Hashtbl.create 1024 in
  (* newest-first iteration with prepends preserves the grouping order
     the reversed-cons-list representation produced *)
  Rz_ir.Ir.iter_routes_rev ir
    (fun (r : Rz_ir.Ir.route_obj) ->
      Rz_net.Prefix_trie.add route_trie r.prefix r.origin;
      Rz_obs.Obs.Counter.incr c_trie_inserts;
      let existing = Option.value ~default:[] (Hashtbl.find_opt by_origin r.origin) in
      Hashtbl.replace by_origin r.origin (r.prefix :: existing));
  (* aut-num member-of -> as-set indirect members (when authorized) *)
  let indirect_as_members = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (an : Rz_ir.Ir.aut_num) ->
      List.iter
        (fun set_name ->
          let key = canon set_name in
          match Hashtbl.find_opt ir.as_sets key with
          | Some set when mbrs_by_ref_allows set.mbrs_by_ref an.mnt_by ->
            let existing =
              Option.value ~default:[] (Hashtbl.find_opt indirect_as_members key)
            in
            Hashtbl.replace indirect_as_members key (an.asn :: existing)
          | _ -> ())
        an.member_of)
    ir.aut_nums;
  (* route member-of -> route-set indirect members *)
  let indirect_route_members = Hashtbl.create 64 in
  Rz_ir.Ir.iter_routes_rev ir
    (fun (r : Rz_ir.Ir.route_obj) ->
      match r.member_of_ids with
      | [] -> ()
      | _ ->
        List.iter
          (fun set_name ->
            let key = canon set_name in
            match Hashtbl.find_opt ir.route_sets key with
            | Some set
              when mbrs_by_ref_allows set.mbrs_by_ref (Rz_ir.Ir.route_mnt_by ir r) ->
              let existing =
                Option.value ~default:[] (Hashtbl.find_opt indirect_route_members key)
              in
              Hashtbl.replace indirect_route_members key
                ((r.prefix, Rz_net.Range_op.None_) :: existing)
            | _ -> ())
          (Rz_ir.Ir.route_member_of ir r));
  { ir;
    route_trie;
    by_origin;
    indirect_as_members;
    indirect_route_members;
    as_memo = Hashtbl.create 256;
    rs_memo = Hashtbl.create 64;
    flatten_trunc = Hashtbl.create 16;
    graph = None;
    claims = None;
    member_routes = None })

let of_dumps dumps =
  let ir = Rz_ir.Ir.create () in
  List.iter (fun (source, text) -> ignore (Rz_ir.Lower.add_dump ir ~source text)) dumps;
  build ir

(* ---------------- set resolution ---------------- *)

(* Position of [key] on a walk's [path] (innermost first), counted from
   the root at 0; -1 when it is not on the path. *)
let rec path_pos key = function
  | [] -> -1
  | k :: rest -> if String.equal k key then List.length rest else path_pos key rest

(* The one recursive walk behind as-set and route-set resolution, rooted
   at [top_key]. [expand key set go bound] computes a set's answer from
   [go child] of its members; [bound ()] records a bound it hit. A member
   already on the path is cut and answers [cut]; an unknown set, or one
   past a bound, answers [empty].

   Cuts are path-relative, so a set's answer inside a walk may differ
   from its answer as a root. [low] tracks the shallowest path position
   a cut reached, -1 once a bound is hit. A set whose walk left [low]
   deeper than its own position cut back to neither itself nor an
   ancestor and hit no bound: its answer is the same for every caller
   and is stored [shared], for any walk to reuse. Every other answer is
   stored only for the root, where it equals a fresh database's answer
   to a query of that set first. *)
let walk t memo sets ~empty ~cut expand top_key =
  let work = ref 0 and low = ref max_int in
  let bound () =
    mark_truncated t top_key;
    low := -1
  in
  let rec go key path depth =
    match Hashtbl.find memo key with
    | { shared = true; value } -> value
    | { shared = false; _ } | (exception Not_found) ->
      let pos = path_pos key path in
      if depth > max_flatten_depth || !work > max_flatten_work then begin
        (* stop descending; the partial answer of the ancestors stands *)
        bound ();
        empty
      end
      else if pos >= 0 then begin
        low := min !low pos;
        cut
      end
      else begin
        incr work;
        match Hashtbl.find_opt sets key with
        | None -> empty
        | Some set ->
          let above = !low in
          low := max_int;
          let value = expand key set (fun child -> go child (key :: path) (depth + 1)) bound in
          let shared = !low > depth in
          low := min above !low;
          if shared || depth = 0 then Hashtbl.replace memo key { value; shared };
          value
      end
  in
  go top_key [] 0

let as_set_exists t name = Hashtbl.mem t.ir.as_sets (canon name)

let as_empty = { members = Asn_set.empty; depth = 0; loop = false }
let as_cut = { as_empty with loop = true }

let as_walk t =
  walk t t.as_memo t.ir.as_sets ~empty:as_empty ~cut:as_cut
    (fun key (set : Rz_ir.Ir.as_set) go _ ->
      let indirect = Option.value ~default:[] (Hashtbl.find_opt t.indirect_as_members key) in
      List.fold_left
        (fun acc child ->
          let a = go (canon child) in
          { members = Asn_set.union acc.members a.members;
            depth = max acc.depth (1 + a.depth);
            loop = acc.loop || a.loop })
        { members = Asn_set.of_list (set.member_asns @ indirect); depth = 1; loop = false }
        set.member_sets)

let as_answer t key =
  match Hashtbl.find t.as_memo key with
  | e -> e.value
  | exception Not_found -> as_walk t key

(* The memo-hit path is one lookup and allocates nothing: verification
   calls it for every as-set filter it evaluates. *)
let flatten_as_set t name =
  let key = canon name in
  match Hashtbl.find t.as_memo key with
  | e ->
    if Rz_obs.Obs.enabled () then Rz_obs.Obs.Counter.incr c_as_flat_hits;
    e.value.members
  | exception Not_found ->
    if Rz_obs.Obs.enabled () then Rz_obs.Obs.Counter.incr c_as_flat_misses;
    (as_walk t key).members

let asn_in_as_set t name asn = Asn_set.mem asn (flatten_as_set t name)
let as_set_depth t name = (as_answer t (canon name)).depth
let as_set_has_loop t name = (as_answer t (canon name)).loop

(* ---------------- route-object queries ---------------- *)

let covering_routes t observed = Rz_net.Prefix_trie.covering t.route_trie observed
let origin_prefixes t asn = Option.value ~default:[] (Hashtbl.find_opt t.by_origin asn)
let origin_has_routes t asn = Hashtbl.mem t.by_origin asn
let exact_origins t prefix = Rz_net.Prefix_trie.exact t.route_trie prefix

(* ---------------- route-set flattening ---------------- *)

let route_set_exists t name = Hashtbl.mem t.ir.route_sets (canon name)

let take_at_most n lst =
  let rec loop acc n = function
    | [] -> List.rev acc
    | _ when n = 0 -> List.rev acc
    | x :: rest -> loop (x :: acc) (n - 1) rest
  in
  loop [] n lst

let rs_walk t =
  walk t t.rs_memo t.ir.route_sets ~empty:[] ~cut:[]
    (fun key (set : Rz_ir.Ir.route_set) go bound ->
      let resolve = function
        | Rz_ir.Ir.Rs_prefix (p, op) -> [ (p, op) ]
        | Rz_ir.Ir.Rs_asn (asn, op) -> List.map (fun p -> (p, op)) (origin_prefixes t asn)
        | Rz_ir.Ir.Rs_set (child, op) ->
          let child_key = canon child in
          let base =
            if Hashtbl.mem t.ir.route_sets child_key then go child_key
            else begin
              (* as-set member (RFC 2622 allows it): prefixes of its
                 flattened ASNs; a truncated flattening flags this root *)
              let asns = flatten_as_set t child_key in
              if Hashtbl.mem t.flatten_trunc child_key then bound ();
              Asn_set.fold
                (fun asn acc ->
                  List.rev_append
                    (List.map (fun p -> (p, Rz_net.Range_op.None_)) (origin_prefixes t asn))
                    acc)
                asns []
            end
          in
          List.map (fun (p, inner) -> (p, Rz_net.Range_op.compose op inner)) base
      in
      let direct = List.concat_map resolve set.members in
      let indirect = Option.value ~default:[] (Hashtbl.find_opt t.indirect_route_members key) in
      let result = direct @ indirect in
      (* Member-count bound: duplication bombs (the same large set
         referenced from many members) multiply the flattened list, not
         the object count, so cap the materialized result. *)
      if List.length result > max_route_set_members then begin
        bound ();
        take_at_most max_route_set_members result
      end
      else result)

let flatten_route_set t name =
  let key = canon name in
  match Hashtbl.find t.rs_memo key with
  | e ->
    if Rz_obs.Obs.enabled () then Rz_obs.Obs.Counter.incr c_rs_flat_hits;
    e.value
  | exception Not_found ->
    if Rz_obs.Obs.enabled () then Rz_obs.Obs.Counter.incr c_rs_flat_misses;
    rs_walk t key

let warm_caches t =
  Hashtbl.iter (fun key _ -> ignore (flatten_as_set t key)) t.ir.as_sets;
  Hashtbl.iter (fun key _ -> ignore (flatten_route_set t key)) t.ir.route_sets

(* ---------------- set reference graph ---------------- *)

(* Direct set-to-set references of one named set object, across every set
   class sharing the canonical name space: as-set member sets, route-set
   [Rs_set] members, set references inside a filter-set's filter, and
   as-sets / nested sets named by a peering-set's peerings. This is the
   edge relation behind the streaming engine's invalidation walk — edges
   are a {e superset} of what evaluation can read (sound: reachability
   over-approximation can only widen invalidation, never miss it), and
   deliberately ignore the flattening work/depth caps. *)
let rec filter_set_refs acc (f : Rz_policy.Ast.filter) =
  match f with
  | Rz_policy.Ast.As_set_ref (name, _)
  | Rz_policy.Ast.Route_set_ref (name, _)
  | Rz_policy.Ast.Filter_set_ref name -> canon name :: acc
  | Rz_policy.Ast.And_f (a, b) | Rz_policy.Ast.Or_f (a, b) ->
    filter_set_refs (filter_set_refs acc a) b
  | Rz_policy.Ast.Not_f a -> filter_set_refs acc a
  | Rz_policy.Ast.Any | Rz_policy.Ast.Peer_as_filter | Rz_policy.Ast.As_num _
  | Rz_policy.Ast.Prefix_set _ | Rz_policy.Ast.Path_regex _
  | Rz_policy.Ast.Community _ | Rz_policy.Ast.Fltr_martian -> acc

let rec as_expr_set_refs acc (e : Rz_policy.Ast.as_expr) =
  match e with
  | Rz_policy.Ast.As_set name -> canon name :: acc
  | Rz_policy.Ast.Asn _ | Rz_policy.Ast.Any_as -> acc
  | Rz_policy.Ast.And (a, b) | Rz_policy.Ast.Or (a, b)
  | Rz_policy.Ast.Except_as (a, b) -> as_expr_set_refs (as_expr_set_refs acc a) b

let peering_set_refs acc (p : Rz_policy.Ast.peering) =
  match p with
  | Rz_policy.Ast.Peering_spec { as_expr; _ } -> as_expr_set_refs acc as_expr
  | Rz_policy.Ast.Peering_set_ref name -> canon name :: acc

let referenced_sets t name =
  let key = canon name in
  let acc = [] in
  let acc =
    match Hashtbl.find_opt t.ir.as_sets key with
    | None -> acc
    | Some s -> List.rev_append (List.map canon s.member_sets) acc
  in
  let acc =
    match Hashtbl.find_opt t.ir.route_sets key with
    | None -> acc
    | Some s ->
      List.fold_left
        (fun acc m ->
          match m with
          | Rz_ir.Ir.Rs_set (child, _) -> canon child :: acc
          | Rz_ir.Ir.Rs_prefix _ | Rz_ir.Ir.Rs_asn _ -> acc)
        acc s.members
  in
  let acc =
    match Hashtbl.find_opt t.ir.filter_sets key with
    | None -> acc
    | Some s -> filter_set_refs acc s.filter
  in
  let acc =
    match Hashtbl.find_opt t.ir.peering_sets key with
    | None -> acc
    | Some s -> List.fold_left peering_set_refs acc s.peerings
  in
  List.sort_uniq compare acc

(* ---------------- in-place patching ---------------- *)

let set_or_remove tbl k = function
  | [] -> Hashtbl.remove tbl k
  | l -> Hashtbl.replace tbl k l

let push tbl k v =
  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

let pull tbl k v =
  Option.iter
    (fun l -> set_or_remove tbl k (List.filter (fun x -> x <> v) l))
    (Hashtbl.find_opt tbl k)

(* Bring one set's entries in [g] up to date with the IR. *)
let index_set t g key =
  let refs = referenced_sets t key in
  let old = Option.value ~default:[] (Hashtbl.find_opt g.refs key) in
  if refs <> old then begin
    List.iter (fun c -> pull g.parents c key) old;
    List.iter (fun c -> push g.parents c key) refs;
    set_or_remove g.refs key refs
  end;
  let asns, sets =
    match Hashtbl.find_opt t.ir.route_sets key with
    | None -> ([], [])
    | Some s ->
      List.fold_right
        (fun m (asns, sets) ->
          match m with
          | Rz_ir.Ir.Rs_asn (a, _) -> (a :: asns, sets)
          | Rz_ir.Ir.Rs_set (c, _) -> (asns, canon c :: sets)
          | Rz_ir.Ir.Rs_prefix _ -> (asns, sets))
        s.members ([], [])
  in
  let asns = List.sort_uniq compare asns in
  let old_asns = Option.value ~default:[] (Hashtbl.find_opt g.rs_asns key) in
  if asns <> old_asns then begin
    List.iter (fun a -> pull g.asn_readers a key) old_asns;
    List.iter (fun a -> push g.asn_readers a key) asns;
    set_or_remove g.rs_asns key asns
  end;
  set_or_remove g.rs_sets key sets

let graph t =
  match t.graph with
  | Some g -> g
  | None ->
    let g =
      { refs = Hashtbl.create 256; parents = Hashtbl.create 256;
        rs_asns = Hashtbl.create 64; asn_readers = Hashtbl.create 256;
        rs_sets = Hashtbl.create 16 }
    in
    (* a name shared by two set classes is indexed twice, harmlessly *)
    let index key _ = index_set t g key in
    Hashtbl.iter index t.ir.as_sets;
    Hashtbl.iter index t.ir.route_sets;
    Hashtbl.iter index t.ir.filter_sets;
    Hashtbl.iter index t.ir.peering_sets;
    t.graph <- Some g;
    g

(* [keys] and every set that reaches one of them. *)
let ancestors g keys =
  let seen = Hashtbl.create 16 in
  let rec go = function
    | [] -> ()
    | k :: rest when Hashtbl.mem seen k -> go rest
    | k :: rest ->
      Hashtbl.replace seen k ();
      go (List.rev_append (Option.value ~default:[] (Hashtbl.find_opt g.parents k)) rest)
  in
  go keys;
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

(* Drop the memo entries of [keys] (closed upwards by the caller): an
   entry is computed from the sets its walk reaches, and reuses only
   shared entries, which are the same for every caller. A bound-hit
   entry also depends on which entries were warm when it was computed;
   db.mli states what holds there. *)
let forget t keys =
  List.iter
    (fun key ->
      Hashtbl.remove t.as_memo key;
      Hashtbl.remove t.rs_memo key;
      Hashtbl.remove t.flatten_trunc key)
    keys

let set_claims c asn sets =
  let old = Option.value ~default:[] (Hashtbl.find_opt c.by_asn asn) in
  if sets <> old then begin
    List.iter (fun s -> pull c.by_set s asn) old;
    List.iter (fun s -> push c.by_set s asn) sets;
    set_or_remove c.by_asn asn sets
  end

let member_of_keys t asn =
  match Hashtbl.find_opt t.ir.aut_nums asn with
  | None -> []
  | Some an -> List.sort_uniq compare (List.map canon an.member_of)

let claims t =
  match t.claims with
  | Some c -> c
  | None ->
    let c = { by_asn = Hashtbl.create 256; by_set = Hashtbl.create 64 } in
    Hashtbl.iter (fun asn _ -> set_claims c asn (member_of_keys t asn)) t.ir.aut_nums;
    t.claims <- Some c;
    c

let member_routes t =
  match t.member_routes with
  | Some l -> l
  | None ->
    let acc = ref [] in
    Rz_ir.Ir.iter_routes_rev t.ir (fun (r : Rz_ir.Ir.route_obj) ->
        if r.member_of_ids <> [] then acc := r :: !acc);
    t.member_routes <- Some !acc;
    !acc

(* Recompute a set's indirect members the way [build] does. *)
let reindex_indirect t key =
  if Hashtbl.mem t.ir.as_sets key || Hashtbl.mem t.indirect_as_members key then
    set_or_remove t.indirect_as_members key
      (match Hashtbl.find_opt t.ir.as_sets key with
       | None -> []
       | Some set ->
         List.filter
           (fun asn ->
             match Hashtbl.find_opt t.ir.aut_nums asn with
             | Some (an : Rz_ir.Ir.aut_num) -> mbrs_by_ref_allows set.mbrs_by_ref an.mnt_by
             | None -> false)
           (Option.value ~default:[] (Hashtbl.find_opt (claims t).by_set key)));
  if Hashtbl.mem t.ir.route_sets key || Hashtbl.mem t.indirect_route_members key then
    set_or_remove t.indirect_route_members key
      (match Hashtbl.find_opt t.ir.route_sets key with
       | None -> []
       | Some set ->
         List.concat_map
           (fun (r : Rz_ir.Ir.route_obj) ->
             if mbrs_by_ref_allows set.mbrs_by_ref (Rz_ir.Ir.route_mnt_by t.ir r) then
               List.filter_map
                 (fun s -> if canon s = key then Some (r.prefix, Rz_net.Range_op.None_) else None)
                 (Rz_ir.Ir.route_member_of t.ir r)
             else [])
           (member_routes t))

let same_route p o (r : Rz_ir.Ir.route_obj) =
  r.origin = o && Rz_net.Prefix.equal r.prefix p

(* Index the route object (p, o) as added, or drop it as removed, by
   whether the IR now holds it. An added route object is the IR's newest
   ([Ir.add_route] appends), so it goes last, where [build] puts it. *)
let patch_route t p o =
  if Hashtbl.mem t.ir.route_seen (p, o) then begin
    if not (List.mem o (Rz_net.Prefix_trie.exact t.route_trie p)) then begin
      Rz_net.Prefix_trie.add_last t.route_trie p o;
      Rz_obs.Obs.Counter.incr c_trie_inserts;
      Hashtbl.replace t.by_origin o (origin_prefixes t o @ [ p ]);
      match t.member_routes with
      | None -> ()
      | Some l ->
        let newest = ref None in
        (try
           Rz_ir.Ir.iter_routes_rev t.ir (fun r ->
               if same_route p o r then begin
                 newest := Some r;
                 raise Exit
               end)
         with Exit -> ());
        (match !newest with
         | Some r when r.member_of_ids <> [] -> t.member_routes <- Some (l @ [ r ])
         | _ -> ())
    end
  end
  else begin
    Rz_net.Prefix_trie.remove t.route_trie p (fun v -> v = o);
    set_or_remove t.by_origin o
      (List.filter (fun q -> not (Rz_net.Prefix.equal q p)) (origin_prefixes t o));
    Option.iter
      (fun l -> t.member_routes <- Some (List.filter (fun r -> not (same_route p o r)) l))
      t.member_routes
  end

let set_ancestors t name = ancestors (graph t) [ canon name ]

(* Route-sets whose flattening reads [asn]'s route objects directly: an
   [Rs_asn] member naming it, or a member as-set whose flattened ASNs
   include it. *)
let direct_readers t asn =
  let g = graph t in
  Hashtbl.fold
    (fun rs children acc ->
      if
        List.exists
          (fun c ->
            (not (Hashtbl.mem t.ir.route_sets c))
            && Hashtbl.mem t.ir.as_sets c
            && Asn_set.mem asn (flatten_as_set t c))
          children
        && not (List.mem rs acc)
      then rs :: acc
      else acc)
    g.rs_sets
    (Option.value ~default:[] (Hashtbl.find_opt g.asn_readers asn))

let origin_readers t asn = ancestors (graph t) (direct_readers t asn)

let patch t edits =
  Rz_obs.Obs.Span.with_ "db-patch" (fun () ->
  let g = graph t in
  (* claims and route indexes first: recomputing a set's indirect
     members reads both, whatever order the edits came in *)
  let origins =
    List.filter_map
      (function
        | Edit_aut_num asn ->
          Option.iter (fun c -> set_claims c asn (member_of_keys t asn)) t.claims;
          None
        | Edit_route (p, o) ->
          patch_route t p o;
          Some o
        | Edit_set _ -> None)
      edits
  in
  let edited =
    List.filter_map
      (function
        | Edit_set name ->
          let key = canon name in
          index_set t g key;
          reindex_indirect t key;
          Some key
        | Edit_aut_num _ | Edit_route _ -> None)
      edits
  in
  forget t (ancestors g edited);
  (* after the set edits, so the flattening behind [direct_readers] sees
     the new members *)
  List.iter (fun o -> forget t (origin_readers t o)) origins)

(* ---------------- delegates ---------------- *)

let find_aut_num t asn = Rz_ir.Ir.find_aut_num t.ir asn
let find_peering_set t name = Rz_ir.Ir.find_peering_set t.ir name
let find_filter_set t name = Rz_ir.Ir.find_filter_set t.ir name
