module Ast = Rz_policy.Ast
module Db = Rz_irr.Db
module Rel_db = Rz_asrel.Rel_db
module Range_op = Rz_net.Range_op

type config = { paper_compat : bool; memoize : bool; track_deps : bool }

let default_config = { paper_compat = false; memoize = true; track_deps = false }

(* Observability: one increment of [verify.hops_total] plus exactly one
   per-status counter per hop check, so the status counters always sum
   to the hop total (asserted by the golden pipeline test). *)
module Obs = Rz_obs.Obs
module Trace = Rz_trace.Trace

let c_hops = Obs.Counter.make "verify.hops_total"
let c_verified = Obs.Counter.make "verify.status.verified"
let c_skipped = Obs.Counter.make "verify.status.skipped"
let c_unrecorded = Obs.Counter.make "verify.status.unrecorded"
let c_relaxed = Obs.Counter.make "verify.status.relaxed"
let c_safelisted = Obs.Counter.make "verify.status.safelisted"
let c_unverified = Obs.Counter.make "verify.status.unverified"
let c_as_set_evals = Obs.Counter.make "verify.filter_evals.as_set"
let c_filter_abstains = Obs.Counter.make "verify.filter_abstains_total"
let c_routes = Obs.Counter.make "verify.routes_total"
let c_routes_excluded = Obs.Counter.make "verify.routes_excluded_total"
let c_memo_hits = Obs.Counter.make "verify.memo_hits"
let c_memo_misses = Obs.Counter.make "verify.memo_misses"
let h_route_ns = Obs.Histogram.make "verify.route_ns"

(* Churn-safe invalidation (the streaming engine's contract): entries
   surgically removed from the hop memo when a policy object changes, and
   compiled NFAs evicted when the rules that contributed them change.
   Registered here because the memo lives here, named under [stream.*]
   because only the streaming scenario exercises them. *)
let c_invalidations = Obs.Counter.make "stream.invalidations"
let c_nfa_evicted = Obs.Counter.make "stream.nfa_evicted"

let status_counter (status : Status.t) =
  match status with
  | Status.Verified -> c_verified
  | Status.Skipped _ -> c_skipped
  | Status.Unrecorded _ -> c_unrecorded
  | Status.Relaxed _ -> c_relaxed
  | Status.Safelisted _ -> c_safelisted
  | Status.Unverified -> c_unverified

let count_status (status : Status.t) =
  Obs.Counter.incr c_hops;
  Obs.Counter.incr (status_counter status)

(* Key of one memoizable hop check. [second] is [path.(1)] for export
   checks (read by the Export-Self relaxation and the uphill safelist) and
   a sentinel otherwise — with it, every input [verify_hop] consumes on a
   path-free policy is in the key, so a cached verdict is bit-identical to
   a recomputed one. *)
type hop_key = {
  k_export : bool;
  k_subject : Rz_net.Asn.t;
  k_remote : Rz_net.Asn.t;
  k_second : Rz_net.Asn.t;
  k_prefix : Rz_net.Prefix.t;
  k_origin : Rz_net.Asn.t;
}

(* The memo lookup sits on the per-hop fast path, so it avoids
   [Hashtbl.hash]'s generic structure walk: ASNs and both address
   families are machine integers underneath, mixed by hand. *)
module Hop_tbl = Hashtbl.Make (struct
  type t = hop_key

  let equal a b =
    a.k_subject = b.k_subject && a.k_remote = b.k_remote
    && a.k_second = b.k_second && a.k_origin = b.k_origin
    && a.k_export = b.k_export
    && Rz_net.Prefix.equal a.k_prefix b.k_prefix

  let prefix_hash (p : Rz_net.Prefix.t) =
    match p.addr with
    | Rz_net.Prefix.V4 a -> (a * 31) + p.len
    | Rz_net.Prefix.V6 (hi, lo) ->
      (((Int64.to_int hi * 31) + Int64.to_int lo) * 31) + p.len

  let hash k =
    let h = prefix_hash k.k_prefix in
    let h = (h * 31) + k.k_subject in
    let h = (h * 31) + k.k_remote in
    let h = (h * 31) + k.k_second in
    let h = (h * 31) + k.k_origin in
    if k.k_export then h * 31 else h
end)

(* Trace provenance gathered alongside a hop verdict when decision
   tracing ({!Rz_trace.Trace}) is enabled: the rendered rule consulted,
   the kind of the decisive filter, and every set name walked. [None]
   whenever tracing was off during the evaluation — which also covers
   every memo entry created in an untraced run. *)
type prov = {
  p_rule : string option;
  p_filter : string option;
  p_sets : string list;
}

(* A memoized hop carries its provenance so cached hits can emit trace
   records as rich as recomputed ones. Tracing configuration is fixed
   before an engine runs, so entries created in a traced run (the only
   ones its hits can find) always hold [Some prov]. *)
type memo_entry = { e_hop : Report.hop; e_prov : prov option }

(* Database reads a hop evaluation performed beyond what {!hop_key}
   captures, recorded when [config.track_deps] so a later policy-object
   edit can surgically invalidate exactly the entries that read the
   edited object. Set names are the {e roots} consulted (flattening
   recurses inside [Db]; the reachability walk in {!apply_edits} expands
   them). Origins are the ASNs whose route-object {e presence} gated the
   verdict (the [Zero_route_as] abstain). [n_overflow] marks an entry
   that blew the cap and must be treated as depending on everything. *)
type dep_note = {
  mutable n_sets : string list;
  mutable n_origins : int list;
  mutable n_overflow : bool;
}

let max_deps = 128
let fresh_deps () = { n_sets = []; n_origins = []; n_overflow = false }

type t = {
  db : Db.t;
  rels : Rel_db.t;
  config : config;
  only_provider_memo : (Rz_net.Asn.t, bool) Hashtbl.t;
  regex_cache : Rz_aspath.Regex_nfa.Cache.cache;
      (* each distinct Path_regex pattern compiled once per engine *)
  path_dep_memo : (int, bool) Hashtbl.t;
      (* (subject lsl 1) lor is_export -> policies reference the AS-path *)
  hop_memo : memo_entry Hop_tbl.t;
  (* Reverse dependency indexes over memoized keys, maintained only when
     [config.track_deps]. A key may be listed more than once (re-inserted
     after an invalidation through another index); removal is idempotent
     and [stream.invalidations] counts actual memo removals only. The
     ["*"] bucket of [idx_set] holds overflowed entries. *)
  idx_subject : (Rz_net.Asn.t, hop_key list ref) Hashtbl.t;
  idx_prefix : (Rz_net.Prefix.t, hop_key list ref) Hashtbl.t;
  idx_set : (string, hop_key list ref) Hashtbl.t;
  idx_origin : (Rz_net.Asn.t, hop_key list ref) Hashtbl.t;
  mutable bypasses : int;  (* hop checks that skipped the memo as path-dependent *)
}

let create ?(config = default_config) db rels =
  { db; rels; config;
    only_provider_memo = Hashtbl.create 64;
    regex_cache = Rz_aspath.Regex_nfa.Cache.create ();
    path_dep_memo = Hashtbl.create 64;
    (* small, so that {!verify_rib}'s per-prefix [reset] is cheap; a
       persistent memo grows by doubling *)
    hop_memo = Hop_tbl.create 64;
    idx_subject = Hashtbl.create 64;
    idx_prefix = Hashtbl.create 256;
    idx_set = Hashtbl.create 64;
    idx_origin = Hashtbl.create 64;
    bypasses = 0 }

let db t = t.db
let bypasses t = t.bypasses
let hop_memo_size t = Hop_tbl.length t.hop_memo
let nfa_cache_size t = Rz_aspath.Regex_nfa.Cache.size t.regex_cache

(* ------------------------------------------------------------------ *)
(* Tri-valued evaluation: a filter/peering either matches, mismatches,  *)
(* or abstains (unhandled construct / missing RPSL object).             *)
(* ------------------------------------------------------------------ *)

type abstain = A_skip of Status.skip_reason | A_unrec of Status.unrec_reason
type outcome = Match | NoMatch | Abstain of abstain

let o_and a b =
  match (a, b) with
  | NoMatch, _ | _, NoMatch -> NoMatch
  | Abstain x, _ | _, Abstain x -> Abstain x
  | Match, Match -> Match

let o_or a b =
  match (a, b) with
  | Match, _ | _, Match -> Match
  | Abstain x, _ | _, Abstain x -> Abstain x
  | NoMatch, NoMatch -> NoMatch

let o_not = function Match -> NoMatch | NoMatch -> Match | Abstain x -> Abstain x

(* Evaluation context for one hop check. *)
type ctx = {
  prefix : Rz_net.Prefix.t;
  path : Rz_net.Asn.t array;  (** exporter first, origin last *)
  remote : Rz_net.Asn.t;      (** PeerAS binding *)
  origin : Rz_net.Asn.t;
  mutable covering : (Rz_net.Prefix.t * Rz_net.Asn.t) list option;
      (** route objects covering [prefix], computed on first use — the
          trie is walked once per hop check, however many filter terms
          consult it *)
  trace : bool;  (** decision tracing on for this evaluation *)
  mutable sets_walked : string list;
      (** set names consulted (reverse order), only when [trace] *)
  mutable sets_n : int;
  deps : dep_note option;
      (** database reads recorded for invalidation, when [track_deps] *)
}

(* Bound on [sets_walked]: trace records must stay small even under an
   as-set bomb. *)
let max_traced_sets = 8

let make_ctx ~trace ~deps ~prefix ~path ~remote ~origin =
  { prefix; path; remote; origin; covering = None; trace; sets_walked = [];
    sets_n = 0; deps }

let trace_set ctx name =
  if ctx.trace && ctx.sets_n < max_traced_sets then begin
    ctx.sets_walked <- name :: ctx.sets_walked;
    ctx.sets_n <- ctx.sets_n + 1
  end

let dep_set ctx name =
  match ctx.deps with
  | None -> ()
  | Some d ->
    if not d.n_overflow then begin
      let key = Rz_rpsl.Set_name.canonical name in
      if not (List.mem key d.n_sets) then
        if List.length d.n_sets >= max_deps then d.n_overflow <- true
        else d.n_sets <- key :: d.n_sets
    end

let dep_origin ctx asn =
  match ctx.deps with
  | None -> ()
  | Some d ->
    if (not d.n_overflow) && not (List.mem asn d.n_origins) then
      if List.length d.n_origins >= max_deps then d.n_overflow <- true
      else d.n_origins <- asn :: d.n_origins

(* Every set-reference evaluation site notes the name for both consumers:
   the trace record (display name, capped small) and the invalidation
   index (canonical name, capped large). *)
let note_set ctx name =
  trace_set ctx name;
  dep_set ctx name

let covering t ctx =
  match ctx.covering with
  | Some routes -> routes
  | None ->
    let routes = Db.covering_routes t.db ctx.prefix in
    ctx.covering <- Some routes;
    routes

(* ---------------- filters ---------------- *)

let prefix_from_origin t ctx asn op =
  List.exists
    (fun (declared, o) ->
      o = asn && Range_op.matches op ~declared ~observed:ctx.prefix)
    (covering t ctx)

let rec eval_filter t ctx (filter : Ast.filter) : outcome =
  match filter with
  | Ast.Any -> Match
  | Ast.Peer_as_filter ->
    if prefix_from_origin t ctx ctx.remote Range_op.None_ then Match
    else begin
      (* The verdict now hinges on whether [remote] has any route object
         at all — record the origin dependency so a route add/del for it
         (anywhere, not just under this prefix) invalidates the entry. *)
      dep_origin ctx ctx.remote;
      if not (Db.origin_has_routes t.db ctx.remote) then
        Abstain (A_unrec (Status.Zero_route_as ctx.remote))
      else NoMatch
    end
  | Ast.As_num (asn, op) ->
    if prefix_from_origin t ctx asn op then Match
    else begin
      dep_origin ctx asn;
      if not (Db.origin_has_routes t.db asn) then
        Abstain (A_unrec (Status.Zero_route_as asn))
      else NoMatch
    end
  | Ast.As_set_ref (name, op) ->
    note_set ctx name;
    if not (Db.as_set_exists t.db name) then
      Abstain (A_unrec (Status.Unrecorded_as_set name))
    else begin
      Obs.Counter.incr c_as_set_evals;
      let members = Db.flatten_as_set t.db name in
      if
        List.exists
          (fun (declared, o) ->
            Db.Asn_set.mem o members && Range_op.matches op ~declared ~observed:ctx.prefix)
          (covering t ctx)
      then Match
      else NoMatch
    end
  | Ast.Route_set_ref (name, op) ->
    note_set ctx name;
    if not (Db.route_set_exists t.db name) then
      Abstain (A_unrec (Status.Unrecorded_route_set name))
    else begin
      let members = Db.flatten_route_set t.db name in
      if
        List.exists
          (fun (declared, member_op) ->
            let effective = Range_op.compose op member_op in
            Range_op.matches effective ~declared ~observed:ctx.prefix)
          members
      then Match
      else NoMatch
    end
  | Ast.Filter_set_ref name ->
    note_set ctx name;
    (match Db.find_filter_set t.db name with
     | None -> Abstain (A_unrec (Status.Unrecorded_filter_set name))
     | Some fs -> eval_filter t ctx fs.filter)
  | Ast.Prefix_set (members, outer_op) ->
    if
      List.exists
        (fun (declared, member_op) ->
          let effective = Range_op.compose outer_op member_op in
          Range_op.matches effective ~declared ~observed:ctx.prefix)
        members
    then Match
    else NoMatch
  | Ast.Path_regex regex ->
    if t.config.paper_compat && Rz_aspath.Regex_ast.uses_future_work_features regex then
      Abstain (A_skip Status.Future_work_regex)
    else begin
      (* Each distinct pattern is compiled to its Thompson NFA once per
         engine; every later route with the same pattern reuses it. The
         state-estimate cap ({1000,2000} repetition bombs and friends) is
         decided inside the cached compile: a capped matcher matches
         nothing, so the hop falls through to Unverified (conservative
         abstain) exactly as the old per-route estimate check did, and
         [nfa.capped] records the refusal once per pattern. *)
      let nfa = Rz_aspath.Regex_nfa.Cache.get t.regex_cache regex in
      let env =
        { Rz_aspath.Regex_match.asn_in_set = (fun name asn -> Db.asn_in_as_set t.db name asn);
          peer_as = Some ctx.remote }
      in
      if Rz_aspath.Regex_nfa.matches ~env nfa ctx.path then Match else NoMatch
    end
  | Ast.Community _ -> Abstain (A_skip Status.Community_filter)
  | Ast.Fltr_martian -> if Rz_net.Martian.is_martian ctx.prefix then Match else NoMatch
  | Ast.And_f (a, b) -> o_and (eval_filter t ctx a) (eval_filter t ctx b)
  | Ast.Or_f (a, b) -> o_or (eval_filter t ctx a) (eval_filter t ctx b)
  | Ast.Not_f a -> o_not (eval_filter t ctx a)

(* ---------------- peerings ---------------- *)

let rec eval_as_expr t ctx (expr : Ast.as_expr) : outcome =
  match expr with
  | Ast.Asn asn -> if asn = ctx.remote then Match else NoMatch
  | Ast.As_set name ->
    note_set ctx name;
    if not (Db.as_set_exists t.db name) then
      Abstain (A_unrec (Status.Unrecorded_as_set name))
    else if Db.asn_in_as_set t.db name ctx.remote then Match
    else NoMatch
  | Ast.Any_as -> Match
  | Ast.And (a, b) -> o_and (eval_as_expr t ctx a) (eval_as_expr t ctx b)
  | Ast.Or (a, b) -> o_or (eval_as_expr t ctx a) (eval_as_expr t ctx b)
  | Ast.Except_as (a, b) ->
    o_and (eval_as_expr t ctx a) (o_not (eval_as_expr t ctx b))

let eval_peering t ctx (peering : Ast.peering) : outcome =
  match peering with
  | Ast.Peering_spec { as_expr; _ } -> eval_as_expr t ctx as_expr
  | Ast.Peering_set_ref name ->
    note_set ctx name;
    (match Db.find_peering_set t.db name with
     | None -> Abstain (A_unrec (Status.Unrecorded_peering_set name))
     | Some ps ->
       List.fold_left
         (fun acc p ->
           o_or acc
             (match p with
              | Ast.Peering_spec { as_expr; _ } -> eval_as_expr t ctx as_expr
              | Ast.Peering_set_ref _ -> NoMatch (* no nested peering-sets *)))
         NoMatch ps.peerings)

(* Remote ASNs / as-sets a peering references, for diagnostics. *)
let rec as_expr_refs acc = function
  | Ast.Asn asn -> Report.Match_remote_as_num asn :: acc
  | Ast.As_set name -> Report.Match_remote_as_set name :: acc
  | Ast.Any_as -> acc
  | Ast.And (a, b) | Ast.Or (a, b) | Ast.Except_as (a, b) ->
    as_expr_refs (as_expr_refs acc a) b

let peering_refs = function
  | Ast.Peering_spec { as_expr; _ } -> as_expr_refs [] as_expr
  | Ast.Peering_set_ref name -> [ Report.Match_remote_as_set name ]

(* ---------------- rules ---------------- *)

(* Facts gathered per factor whose afi applied, used by the precedence
   decision and the relaxation checks. *)
type factor_fact = {
  peering_outcome : outcome;
  filter_outcome : outcome option;  (* evaluated only when peering matched *)
  filter : Ast.filter;
  refs : Report.item list;          (* peering references, for diagnostics *)
  matched_actions : Ast.action list;
      (* actions of the peering clauses that matched the remote *)
}

let afi_applies (rule : Ast.rule) (term : Ast.term) prefix =
  match term.afi with
  | [] ->
    if rule.multiprotocol then true
    else
      (* plain import/export covers IPv4 unicast only (RFC 2622) *)
      Rz_net.Prefix.is_v4 prefix
  | afis -> Rz_net.Afi.matches_any afis prefix

let eval_factor t ctx (factor : Ast.factor) : factor_fact * outcome =
  let peering_outcome = ref NoMatch in
  let matched_actions = ref [] in
  List.iter
    (fun (pa : Ast.peering_action) ->
      let o = eval_peering t ctx pa.peering in
      if o = Match then matched_actions := !matched_actions @ pa.actions;
      peering_outcome := o_or !peering_outcome o)
    factor.peerings;
  let peering_outcome = !peering_outcome in
  let matched_actions = !matched_actions in
  let refs = List.concat_map (fun (pa : Ast.peering_action) -> peering_refs pa.peering) factor.peerings in
  match peering_outcome with
  | Match ->
    let filter_outcome = eval_filter t ctx factor.filter in
    (match filter_outcome with
     | Abstain _ -> Obs.Counter.incr c_filter_abstains
     | Match | NoMatch -> ());
    ( { peering_outcome; filter_outcome = Some filter_outcome; filter = factor.filter;
        refs; matched_actions },
      filter_outcome )
  | NoMatch ->
    ({ peering_outcome; filter_outcome = None; filter = factor.filter; refs;
       matched_actions = [] },
     NoMatch)
  | Abstain a ->
    ({ peering_outcome; filter_outcome = None; filter = factor.filter; refs;
       matched_actions = [] },
     Abstain a)

let eval_term t ctx (rule : Ast.rule) (term : Ast.term) facts : outcome =
  if not (afi_applies rule term ctx.prefix) then NoMatch
  else
    List.fold_left
      (fun acc factor ->
        let fact, outcome = eval_factor t ctx factor in
        facts := fact :: !facts;
        o_or acc outcome)
      NoMatch term.factors

(* Structured policies: EXCEPT's right-hand side takes precedence for the
   routes it matches; REFINE requires both sides (RFC 2622 §6.6), each
   side constrained to its own afi scope. *)
let rec scope_applies (rule : Ast.rule) prefix = function
  | Ast.Term_e term -> afi_applies rule term prefix
  | Ast.Except_e (term, rest) | Ast.Refine_e (term, rest) ->
    afi_applies rule term prefix || scope_applies rule prefix rest

let rec eval_expr t ctx rule facts = function
  | Ast.Term_e term -> eval_term t ctx rule term facts
  | Ast.Except_e (term, rest) ->
    if scope_applies rule ctx.prefix rest then begin
      match eval_expr t ctx rule facts rest with
      | Match -> Match
      | Abstain a -> Abstain a
      | NoMatch -> eval_term t ctx rule term facts
    end
    else eval_term t ctx rule term facts
  | Ast.Refine_e (term, rest) ->
    if scope_applies rule ctx.prefix rest then
      o_and (eval_term t ctx rule term facts) (eval_expr t ctx rule facts rest)
    else eval_term t ctx rule term facts

let eval_rule t ctx (rule : Ast.rule) facts = eval_expr t ctx rule facts rule.expr

(* ---------------- special cases (Section 5.1) ---------------- *)

(* Export Self: the filter is the exporter's own ASN; relax when the AS
   the route was received from is a customer and a route object by some
   cone member covers the prefix (Appendix C semantics). *)
let export_self_applies t ctx ~subject (fact : factor_fact) =
  match fact.filter with
  | Ast.As_num (asn, _) when asn = subject && Array.length ctx.path >= 2 ->
    let received_from = ctx.path.(1) in
    Rel_db.relationship t.rels subject received_from = Rel_db.A_provider_of_b
    &&
    let cone = Rel_db.customer_cone t.rels subject in
    List.exists (fun (_, o) -> Rel_db.Asn_set.mem o cone) (covering t ctx)
  | _ -> false

(* Import Customer: filter names the (transit) customer the route comes
   from; relax the filter to ANY. *)
let import_customer_applies t ctx ~subject (fact : factor_fact) =
  match fact.filter with
  | Ast.As_num (asn, _) ->
    asn = ctx.remote
    && Rel_db.relationship t.rels subject ctx.remote = Rel_db.A_provider_of_b
  | _ -> false

(* Missing routes: the filter names the origin AS (or a set containing
   it) but its route objects are stale/missing. *)
let missing_routes_applies t ctx (fact : factor_fact) =
  match fact.filter with
  | Ast.As_num (asn, _) -> asn = ctx.origin
  | Ast.As_set_ref (name, _) ->
    Db.as_set_exists t.db name && Db.asn_in_as_set t.db name ctx.origin
  | _ -> false

(* Only Provider Policies: every ASN referenced in the subject's rules'
   peerings is one of its providers. *)
let only_provider_policies t ~subject =
  match Hashtbl.find_opt t.only_provider_memo subject with
  | Some cached -> cached
  | None ->
    let result =
      match Db.find_aut_num t.db subject with
      | None -> false
      | Some an ->
        let referenced = ref [] and disqualified = ref false in
        let scan_as_expr = function
          | Ast.Asn asn -> referenced := asn :: !referenced
          | Ast.As_set _ | Ast.Any_as | Ast.And _ | Ast.Or _ | Ast.Except_as _ ->
            disqualified := true
        in
        let scan_rule (rule : Ast.rule) =
          List.iter
            (fun (term : Ast.term) ->
              List.iter
                (fun (factor : Ast.factor) ->
                  List.iter
                    (fun (pa : Ast.peering_action) ->
                      match pa.peering with
                      | Ast.Peering_spec { as_expr; _ } -> scan_as_expr as_expr
                      | Ast.Peering_set_ref _ -> disqualified := true)
                    factor.peerings)
                term.factors)
            (Ast.expr_terms rule.expr)
        in
        List.iter scan_rule an.imports;
        List.iter scan_rule an.exports;
        (not !disqualified)
        && !referenced <> []
        && List.for_all
             (fun asn -> Rel_db.relationship t.rels asn subject = Rel_db.A_provider_of_b)
             !referenced
    in
    Hashtbl.replace t.only_provider_memo subject result;
    result

(* ---------------- path-freeness analysis ---------------- *)

(* A hop verdict may be memoized only when the subject's policies in that
   direction never read the AS-path beyond what {!hop_key} captures (the
   origin, plus [path.(1)] for exports). The one filter construct that
   reads the full path is [Path_regex]; filter-sets are resolved
   recursively (with a cycle guard) because they can hide one. *)
let rec filter_reads_path t ~visiting (filter : Ast.filter) =
  match filter with
  | Ast.Path_regex _ -> true
  | Ast.And_f (a, b) | Ast.Or_f (a, b) ->
    filter_reads_path t ~visiting a || filter_reads_path t ~visiting b
  | Ast.Not_f a -> filter_reads_path t ~visiting a
  | Ast.Filter_set_ref name ->
    let key = Rz_rpsl.Set_name.canonical name in
    if List.mem key visiting then false
    else
      (match Db.find_filter_set t.db name with
       | None -> false
       | Some fs -> filter_reads_path t ~visiting:(key :: visiting) fs.filter)
  | Ast.Any | Ast.Peer_as_filter | Ast.As_num _ | Ast.As_set_ref _
  | Ast.Route_set_ref _ | Ast.Prefix_set _ | Ast.Community _ | Ast.Fltr_martian ->
    false

let policies_read_path t ~subject ~direction =
  let memo_key = (subject lsl 1) lor (match direction with `Export -> 1 | `Import -> 0) in
  match Hashtbl.find_opt t.path_dep_memo memo_key with
  | Some cached -> cached
  | None ->
    let result =
      match Db.find_aut_num t.db subject with
      | None -> false
      | Some an ->
        let rules = match direction with `Import -> an.imports | `Export -> an.exports in
        List.exists
          (fun (rule : Ast.rule) ->
            List.exists
              (fun (term : Ast.term) ->
                List.exists
                  (fun (factor : Ast.factor) ->
                    filter_reads_path t ~visiting:[] factor.filter)
                  term.factors)
              (Ast.expr_terms rule.expr))
          rules
    in
    Hashtbl.replace t.path_dep_memo memo_key result;
    result

(* ---------------- hop verification ---------------- *)

(* Top-level constructor label of a filter, for trace provenance. *)
let filter_kind_label : Ast.filter -> string = function
  | Ast.Any -> "any"
  | Ast.Peer_as_filter -> "peeras"
  | Ast.As_num _ -> "as-num"
  | Ast.As_set_ref _ -> "as-set"
  | Ast.Route_set_ref _ -> "route-set"
  | Ast.Filter_set_ref _ -> "filter-set"
  | Ast.Prefix_set _ -> "prefix-set"
  | Ast.Path_regex _ -> "path-regex"
  | Ast.Community _ -> "community"
  | Ast.Fltr_martian -> "martian"
  | Ast.And_f _ | Ast.Or_f _ | Ast.Not_f _ -> "composite"

(* Trace records are bounded: a pathological rule rendering is clipped. *)
let clip s = if String.length s > 200 then String.sub s 0 197 ^ "..." else s

let trigger_of : Status.t -> string option = function
  | Status.Relaxed s | Status.Safelisted s -> Some (Status.special_to_string s)
  | Status.Unrecorded r -> Some (Status.unrec_to_string r)
  | Status.Skipped r -> Some (Status.skip_to_string r)
  | Status.Verified | Status.Unverified -> None

let empty_prov = { p_rule = None; p_filter = None; p_sets = [] }

(* Emit one trace record for a hop verdict, subject to the sampling
   policy. Building the record (prefix rendering, item strings) only
   happens for sampled hops. *)
let emit_trace ~direction ~subject ~remote ~prefix ~path ~memo (hop : Report.hop)
    (prov : prov option) =
  let cls = Status.class_label hop.Report.status in
  if Trace.should_sample cls then begin
    let n = Array.length path in
    let prov = Option.value prov ~default:empty_prov in
    Trace.emit
      { Trace.seq = 0;  (* assigned by emit *)
        t_ns = Obs.now_ns ();
        domain = (Domain.self () :> int);
        direction = (match direction with `Export -> "export" | `Import -> "import");
        subject; remote;
        prefix = Rz_net.Prefix.to_string prefix;
        origin = (if n = 0 then remote else path.(n - 1));
        path_len = n;
        verdict = Status.to_string hop.Report.status;
        verdict_class = cls;
        rule = prov.p_rule;
        filter_kind = prov.p_filter;
        as_sets = prov.p_sets;
        memo;
        trigger = trigger_of hop.Report.status;
        items = List.map Report.item_to_string hop.Report.items }
  end

let verify_hop_full t ~direction ~subject ~remote ~prefix ~path :
    Report.hop * prov option * dep_note option =
  let tracing = Trace.enabled () in
  let deps = if t.config.track_deps then Some (fresh_deps ()) else None in
  let from_as, to_as =
    match direction with `Export -> (subject, remote) | `Import -> (remote, subject)
  in
  let finish ?attrs status items =
    count_status status;
    { Report.direction; from_as; to_as; status; items; attrs }
  in
  match Db.find_aut_num t.db subject with
  | None ->
    ( finish (Status.Unrecorded (Status.No_aut_num subject))
        [ Report.Unrec (Status.No_aut_num subject) ],
      (if tracing then Some empty_prov else None),
      deps )
  | Some an ->
    let rules = match direction with `Import -> an.imports | `Export -> an.exports in
    if rules = [] then
      ( finish (Status.Unrecorded Status.No_rules) [ Report.Unrec Status.No_rules ],
        (if tracing then Some empty_prov else None),
        deps )
    else begin
      let origin = path.(Array.length path - 1) in
      let ctx = make_ctx ~trace:tracing ~deps ~prefix ~path ~remote ~origin in
      let facts = ref [] in
      let matched_rule = ref None in
      let overall =
        List.fold_left
          (fun acc rule ->
            let o = eval_rule t ctx rule facts in
            if o = Match && !matched_rule = None then matched_rule := Some rule;
            o_or acc o)
          NoMatch rules
      in
      let facts = List.rev !facts in
      (* Diagnostics: peering references of factors whose peering failed,
         and filter identities of factors whose filter failed. *)
      let items =
        List.concat_map
          (fun (fact : factor_fact) ->
            match (fact.peering_outcome, fact.filter_outcome) with
            | Match, Some NoMatch ->
              [ (match fact.filter with
                 | Ast.As_num (asn, op) -> Report.Match_filter_as_num (asn, op)
                 | Ast.As_set_ref (name, _) -> Report.Match_filter_as_set name
                 | _ -> Report.Match_filter) ]
            | NoMatch, _ -> fact.refs
            | _ -> [])
          facts
      in
      (* Provenance for the trace record: the matched rule for Verified,
         otherwise the first rule consulted (all were); the decisive
         filter's kind; the sets walked during evaluation. Computed only
         when tracing — the untraced hot path allocates nothing here. *)
      let prov () =
        if not tracing then None
        else begin
          let rule =
            match !matched_rule with Some r -> Some r | None -> List.nth_opt rules 0
          in
          let decisive =
            match overall with
            | Match ->
              List.find_opt
                (fun (fact : factor_fact) -> fact.filter_outcome = Some Match)
                facts
            | NoMatch | Abstain _ ->
              List.find_opt
                (fun (fact : factor_fact) ->
                  match fact.filter_outcome with
                  | Some NoMatch | Some (Abstain _) -> true
                  | _ -> false)
                facts
          in
          Some
            { p_rule = Option.map (fun r -> clip (Ast.rule_to_string r)) rule;
              p_filter =
                Option.map (fun (f : factor_fact) -> filter_kind_label f.filter) decisive;
              p_sets = List.rev ctx.sets_walked }
        end
      in
      let finish ?attrs status items = (finish ?attrs status items, prov (), deps) in
      match overall with
      | Match ->
        (* the attributes the first fully-matching factor assigns *)
        let attrs =
          List.find_map
            (fun (fact : factor_fact) ->
              if fact.filter_outcome = Some Match && fact.matched_actions <> [] then
                Result.to_option
                  (Rz_policy.Action_eval.apply fact.matched_actions
                     Rz_policy.Action_eval.empty)
              else None)
            facts
        in
        finish ?attrs Status.Verified []
      | NoMatch | Abstain _ ->
        (* Precedence after Verified: Skip, Unrecorded, Relaxed,
           Safelisted, Unverified (Section 5). *)
        let abstains =
          List.filter_map
            (fun (fact : factor_fact) ->
              match (fact.peering_outcome, fact.filter_outcome) with
              | Abstain a, _ | _, Some (Abstain a) -> Some a
              | _ -> None)
            facts
          @ (match overall with Abstain a -> [ a ] | _ -> [])
        in
        let first_skip =
          List.find_map (function A_skip r -> Some r | A_unrec _ -> None) abstains
        in
        let first_unrec =
          List.find_map (function A_unrec r -> Some r | A_skip _ -> None) abstains
        in
        (match first_skip with
         | Some reason -> finish (Status.Skipped reason) (items @ [ Report.Skip reason ])
         | None ->
           (match first_unrec with
            | Some reason ->
              finish (Status.Unrecorded reason) (items @ [ Report.Unrec reason ])
            | None ->
              (* Relaxed filters: only for factors whose peering matched
                 but filter said no. *)
              let filter_failed =
                List.filter
                  (fun (fact : factor_fact) -> fact.filter_outcome = Some NoMatch)
                  facts
              in
              let relaxed =
                if
                  direction = `Export
                  && List.exists (export_self_applies t ctx ~subject) filter_failed
                then Some Status.Export_self
                else if
                  direction = `Import
                  && List.exists (import_customer_applies t ctx ~subject) filter_failed
                then Some Status.Import_customer
                else if List.exists (missing_routes_applies t ctx) filter_failed then
                  Some Status.Missing_routes
                else None
              in
              (match relaxed with
               | Some special ->
                 finish (Status.Relaxed special) (items @ [ Report.Spec special ])
               | None ->
                 let is_customer_or_peer =
                   match Rel_db.relationship t.rels subject remote with
                   | Rel_db.A_provider_of_b | Rel_db.Peers -> true
                   | _ -> false
                 in
                 let safelisted =
                   if is_customer_or_peer && only_provider_policies t ~subject then
                     Some Status.Only_provider_policies
                   else if Rel_db.is_tier1 t.rels subject && Rel_db.is_tier1 t.rels remote
                   then Some Status.Tier1_pair
                   else begin
                     let uphill =
                       match direction with
                       | `Export ->
                         (* A customer passing a customer-learned route up
                            to its provider. The origin's own first-hop
                            export is NOT safelisted (there is no previous
                            AS), matching the paper's Appendix C where the
                            origin's export stays BadExport — the place
                            where filtering is most valuable. *)
                         Rel_db.relationship t.rels remote subject
                         = Rel_db.A_provider_of_b
                         && Array.length ctx.path >= 2
                         && Rel_db.relationship t.rels subject ctx.path.(1)
                            = Rel_db.A_provider_of_b
                       | `Import ->
                         (* provider importing from its customer *)
                         Rel_db.relationship t.rels subject remote
                         = Rel_db.A_provider_of_b
                     in
                     if uphill then Some Status.Uphill else None
                   end
                 in
                 (match safelisted with
                  | Some special ->
                    finish (Status.Safelisted special) (items @ [ Report.Spec special ])
                  | None -> finish Status.Unverified items))))
    end

(* Never a valid ASN ([Asn.t] is a non-negative int), so it cannot
   collide with a real [path.(1)]. *)
let no_second_as = -1

(* Reverse-index maintenance: push a key under an index bucket. Buckets
   are plain cons lists — duplicates are tolerated (see the [t] comment)
   and removal is wholesale per bucket. *)
let idx_push tbl k v =
  match Hashtbl.find_opt tbl k with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add tbl k (ref [ v ])

let index_entry t key (deps : dep_note option) =
  idx_push t.idx_subject key.k_subject key;
  idx_push t.idx_prefix key.k_prefix key;
  match deps with
  | None -> idx_push t.idx_set "*" key
  | Some d ->
    if d.n_overflow then idx_push t.idx_set "*" key
    else begin
      List.iter (fun name -> idx_push t.idx_set name key) d.n_sets;
      List.iter (fun asn -> idx_push t.idx_origin asn key) d.n_origins
    end

let verify_hop t ~direction ~subject ~remote ~prefix ~path : Report.hop =
  let n = Array.length path in
  let tracing = Trace.enabled () in
  if (not t.config.memoize) || n = 0 then begin
    let hop, prov, _deps = verify_hop_full t ~direction ~subject ~remote ~prefix ~path in
    if tracing then
      emit_trace ~direction ~subject ~remote ~prefix ~path ~memo:"computed" hop prov;
    hop
  end
  else begin
    let is_export = match direction with `Export -> true | `Import -> false in
    let key =
      { k_export = is_export;
        k_subject = subject;
        k_remote = remote;
        k_second = (if is_export && n >= 2 then path.(1) else no_second_as);
        k_prefix = prefix;
        k_origin = path.(n - 1) }
    in
    match Hop_tbl.find t.hop_memo key with
    | entry ->
      (* A stored verdict implies the subject's policies are path-free,
         so the hit path is a single probe. Cached verdicts still advance
         [verify.hops_total] and the per-status counters, preserving the
         golden-metrics invariant that the status counters sum to the hop
         total. *)
      Obs.Counter.incr c_memo_hits;
      count_status entry.e_hop.Report.status;
      if tracing then
        emit_trace ~direction ~subject ~remote ~prefix ~path ~memo:"hit" entry.e_hop
          entry.e_prov;
      entry.e_hop
    | exception Not_found ->
      let hop, prov, deps = verify_hop_full t ~direction ~subject ~remote ~prefix ~path in
      (* Path-dependent policies bypass the memo (nothing is inserted, so
         later identical keys cannot hit) and results stay bit-identical
         to an unmemoized engine. *)
      let memo_label =
        if not (policies_read_path t ~subject ~direction) then begin
          Obs.Counter.incr c_memo_misses;
          Hop_tbl.add t.hop_memo key { e_hop = hop; e_prov = prov };
          if t.config.track_deps then index_entry t key deps;
          "miss"
        end
        else begin
          t.bypasses <- t.bypasses + 1;
          "bypass"
        end
      in
      if tracing then
        emit_trace ~direction ~subject ~remote ~prefix ~path ~memo:memo_label hop prov;
      hop
  end

(* ---------------- churn-safe invalidation ---------------- *)

(* A policy-object change; see {!Db.edit}. The caller (the streaming
   engine) mutates its IR and patches the database ({!Db.patch}) first;
   {!apply_edits} then removes exactly the memoized state the change can
   reach. *)
type edit = Db.edit =
  | Edit_aut_num of Rz_net.Asn.t
  | Edit_set of string
  | Edit_route of Rz_net.Prefix.t * Rz_net.Asn.t

let rec patterns_of_filter acc (f : Ast.filter) =
  match f with
  | Ast.Path_regex r -> r :: acc
  | Ast.And_f (a, b) | Ast.Or_f (a, b) ->
    patterns_of_filter (patterns_of_filter acc a) b
  | Ast.Not_f a -> patterns_of_filter acc a
  | Ast.Any | Ast.Peer_as_filter | Ast.As_num _ | Ast.As_set_ref _
  | Ast.Route_set_ref _ | Ast.Filter_set_ref _ | Ast.Prefix_set _
  | Ast.Community _ | Ast.Fltr_martian -> acc

let rule_patterns rules =
  List.fold_left
    (fun acc (rule : Ast.rule) ->
      List.fold_left
        (fun acc (term : Ast.term) ->
          List.fold_left
            (fun acc (factor : Ast.factor) -> patterns_of_filter acc factor.filter)
            acc term.factors)
        acc (Ast.expr_terms rule.expr))
    [] rules

let apply_edits t ~stale_patterns edits =
  let removed = ref 0 in
  let prefixes = Hashtbl.create 16 in
  let invalidate_key key =
    if Hop_tbl.mem t.hop_memo key then begin
      Hop_tbl.remove t.hop_memo key;
      Hashtbl.replace prefixes key.k_prefix ();
      incr removed
    end
  in
  let invalidate_bucket tbl k =
    match Hashtbl.find_opt tbl k with
    | Some l ->
      List.iter invalidate_key !l;
      Hashtbl.remove tbl k
    | None -> ()
  in
  (* Overflowed entries depend on unknown objects: any edit kills them. *)
  if edits <> [] then invalidate_bucket t.idx_set "*";
  (* The NFAs of patterns the edits took away; the cache is pure, so
     eviction bounds memory, never correctness. *)
  List.iter
    (fun p ->
      Rz_aspath.Regex_nfa.Cache.remove t.regex_cache p;
      Obs.Counter.incr c_nfa_evicted)
    stale_patterns;
  let any_set_edit = ref false in
  List.iter
    (fun edit ->
      match edit with
      | Edit_aut_num x ->
        Hashtbl.remove t.only_provider_memo x;
        Hashtbl.remove t.path_dep_memo (x lsl 1);
        Hashtbl.remove t.path_dep_memo ((x lsl 1) lor 1);
        invalidate_bucket t.idx_subject x
      | Edit_set name ->
        any_set_edit := true;
        (* every entry whose recorded root set reaches the edited set *)
        List.iter (invalidate_bucket t.idx_set) (Db.set_ancestors t.db name)
      | Edit_route (p, o) ->
        (* Covering-route reads: every memoized evaluation under a prefix
           the edited route object covers saw a different covering list. *)
        let covered = Hashtbl.fold (fun q _ acc -> q :: acc) t.idx_prefix [] in
        List.iter
          (fun q -> if Rz_net.Prefix.contains p q then invalidate_bucket t.idx_prefix q)
          covered;
        (* Route-presence reads: entries whose verdict hinged on whether
           [o] originates anything at all. *)
        invalidate_bucket t.idx_origin o;
        (* Flatten-time reads: route-set flattens that consult [o]'s
           route objects. *)
        List.iter (invalidate_bucket t.idx_set) (Db.origin_readers t.db o))
    edits;
  (* Path-freeness can flip when a filter-set starts or stops hiding a
     Path_regex; the memo is small and lazily refilled, so clear it
     wholesale on any set edit. (Per-subject entries for edited aut-nums
     were already removed above.) *)
  if !any_set_edit then Hashtbl.reset t.path_dep_memo;
  Obs.Counter.add c_invalidations !removed;
  (!removed, Hashtbl.fold (fun p () acc -> p :: acc) prefixes [])

let verify_route_impl t (route : Rz_bgp.Route.t) : Report.route_report option =
  if Rz_bgp.Route.contains_as_set route then None
  else begin
    let path = Array.of_list (Rz_bgp.Route.dedup_path route) in
    let n = Array.length path in
    if n < 2 then None
    else begin
      (* The path is in collector order: element i is nearer the
         collector, element i+1 nearer the origin, and path.(n-1) is the
         origin. Hop i is exporter path.(i+1) -> importer path.(i); the
         hops are walked origin-side first. *)
      let hops = ref [] in
      for i = n - 2 downto 0 do
        let exporter = path.(i + 1) and importer = path.(i) in
        (* Path as announced across this hop: exporter .. origin. *)
        let hop_path = Array.sub path (i + 1) (n - i - 1) in
        let export_hop =
          verify_hop t ~direction:`Export ~subject:exporter ~remote:importer
            ~prefix:route.prefix ~path:hop_path
        in
        let import_hop =
          verify_hop t ~direction:`Import ~subject:importer ~remote:exporter
            ~prefix:route.prefix ~path:hop_path
        in
        hops := import_hop :: export_hop :: !hops
      done;
      (* hops were accumulated collector-side-first; the paper reports
         origin-side first. *)
      Some { Report.route; hops = List.rev !hops }
    end
  end

let verify_route t route =
  if not (Obs.enabled ()) then verify_route_impl t route
  else begin
    let t0 = Obs.now_ns () in
    let result = verify_route_impl t route in
    let elapsed = Obs.now_ns () - t0 in
    (match result with
     | Some _ ->
       Obs.Counter.incr c_routes;
       Obs.Histogram.observe h_route_ns (float_of_int elapsed)
     | None -> Obs.Counter.incr c_routes_excluded);
    result
  end

(* Empty the hop memo, and under [track_deps] its reverse indexes. Each
   table was created small and [reset] shrinks it back, so a clear costs
   O(entries), not O(the largest memo so far); an empty memo is left
   alone. *)
let clear_hop_memo t =
  if Hop_tbl.length t.hop_memo > 0 then begin
    Hop_tbl.reset t.hop_memo;
    if t.config.track_deps then begin
      Hashtbl.reset t.idx_subject;
      Hashtbl.reset t.idx_prefix;
      Hashtbl.reset t.idx_set;
      Hashtbl.reset t.idx_origin
    end
  end

(* Every memo key holds the prefix, so in prefix order an entry can hit
   only until the prefix changes: clearing there loses no hit and bounds
   the memo by one prefix's hops instead of the whole RIB's. *)
let verify_rib t routes f =
  let by_prefix (a : Rz_bgp.Route.t) (b : Rz_bgp.Route.t) =
    Rz_net.Prefix.compare a.prefix b.prefix
  in
  Array.stable_sort by_prefix routes;
  clear_hop_memo t;
  Array.iteri
    (fun i route ->
      if i > 0 && by_prefix routes.(i - 1) route <> 0 then clear_hop_memo t;
      f route (verify_route t route))
    routes
