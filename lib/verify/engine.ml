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
   tracing ({!Rz_trace.Trace}) is enabled: the rendered rule that
   decided, the kind of the decisive filter, and every set name walked,
   all from what the fold evaluated. [None] whenever tracing was off
   during the evaluation — which also covers every memo entry created
   in an untraced run. *)
type prov = {
  p_rule : string option;
  p_filter : string option;
  p_sets : string list;
}

(* A memoized hop carries its provenance so cached hits can emit trace
   records as rich as recomputed ones. Only verdict-mode hops are
   memoized: the full fold neither reads nor writes the memo. Tracing
   configuration is fixed before an engine runs, so entries created in
   a traced run (the only ones its hits can find) always hold
   [Some prov]. *)
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

(* One rule of a subject's import or export list, for verdict mode: its
   place in the list, and whether any of its peering clauses carries
   actions (only such a rule can supply a verified hop's attrs). *)
type cand = { pos : int; rule : Ast.rule; acts : bool }

(* A subject's rules in one direction, split by the remotes they can
   match. A rule is indexed under its ASNs when it is a plain term whose
   every peering is a single ASN: such a rule's peerings are [NoMatch]
   for any remote it does not name. Every other rule is [residual]. Both
   hold their rules in list order. *)
type rule_index = {
  by_remote : (Rz_net.Asn.t, cand list) Hashtbl.t;
  residual : cand list;
}

type t = {
  db : Db.t;
  rels : Rel_db.t;
  config : config;
  only_provider_memo : (Rz_net.Asn.t, bool) Hashtbl.t;
  regex_cache : Rz_aspath.Regex_nfa.Cache.cache;
      (* each distinct Path_regex pattern compiled once per engine *)
  path_dep_memo : (int, bool) Hashtbl.t;
      (* {!dir_key} -> policies reference the AS-path *)
  rule_index : (int, rule_index) Hashtbl.t;  (* {!dir_key} -> verdict-mode index *)
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
    rule_index = Hashtbl.create 64;
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

(* Key of the per-(subject, direction) caches. *)
let dir_key subject direction =
  (subject lsl 1) lor (match direction with `Export -> 1 | `Import -> 0)

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
  path : Rz_net.Asn.t array;
      (** the route's path, origin last; the hop's own path starts at
          [path.(off)], the exporter *)
  off : int;
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

(* The route's origin: the path's last AS, or the remote on an empty
   path. *)
let origin_of ~remote path =
  let n = Array.length path in
  if n = 0 then remote else path.(n - 1)

let make_ctx ~trace ~deps ~prefix ~path ~off ~remote =
  { prefix; path; off; remote; origin = origin_of ~remote path; covering = None;
    trace; sets_walked = []; sets_n = 0; deps }

(* Length of the hop's own path, exporter .. origin. *)
let hop_len ctx = Array.length ctx.path - ctx.off

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
      let hop_path =
        if ctx.off = 0 then ctx.path else Array.sub ctx.path ctx.off (hop_len ctx)
      in
      if Rz_aspath.Regex_nfa.matches ~env nfa hop_path then Match else NoMatch
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

(* Remote ASNs / as-sets a peering references, for diagnostics, put
   before [tail], last-named first. *)
let peering_refs tail = function
  | Ast.Peering_spec { as_expr; _ } ->
    List.fold_left
      (fun acc -> function
        | Ast.Asn asn -> Report.Match_remote_as_num asn :: acc
        | Ast.As_set name -> Report.Match_remote_as_set name :: acc
        | _ -> acc)
      tail (Ast.as_expr_leaves as_expr)
  | Ast.Peering_set_ref name -> Report.Match_remote_as_set name :: tail

(* ---------------- rules ---------------- *)

(* Facts gathered per factor whose afi applied, used by the precedence
   decision, the relaxation checks and the diagnostics. *)
type factor_fact = {
  factor : Ast.factor;
  peering_outcome : outcome;
  filter_outcome : outcome option;  (* evaluated only when peering matched *)
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

(* The peerings' combined outcome, and the action lists of the clauses
   that matched, last first. *)
let rec eval_peerings t ctx acc matched = function
  | [] -> (acc, matched)
  | (pa : Ast.peering_action) :: rest ->
    let o = eval_peering t ctx pa.peering in
    let matched =
      match o with
      | Match when pa.actions <> [] -> pa.actions :: matched
      | Match | NoMatch | Abstain _ -> matched
    in
    eval_peerings t ctx (o_or acc o) matched rest

let eval_factor t ctx (factor : Ast.factor) facts : outcome =
  match eval_peerings t ctx NoMatch [] factor.peerings with
  | Match, matched ->
    let filter_outcome = eval_filter t ctx factor.filter in
    (match filter_outcome with
     | Abstain _ -> Obs.Counter.incr c_filter_abstains
     | Match | NoMatch -> ());
    let matched_actions =
      match matched with [] -> [] | [ actions ] -> actions | l -> List.concat (List.rev l)
    in
    facts :=
      { factor; peering_outcome = Match; filter_outcome = Some filter_outcome;
        matched_actions }
      :: !facts;
    filter_outcome
  | ((NoMatch | Abstain _) as peering_outcome), _ ->
    facts := { factor; peering_outcome; filter_outcome = None; matched_actions = [] } :: !facts;
    peering_outcome

let eval_term t ctx (rule : Ast.rule) (term : Ast.term) facts : outcome =
  if not (afi_applies rule term ctx.prefix) then NoMatch
  else
    List.fold_left
      (fun acc factor -> o_or acc (eval_factor t ctx factor facts))
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
  match fact.factor.filter with
  | Ast.As_num (asn, _) when asn = subject && hop_len ctx >= 2 ->
    let received_from = ctx.path.(ctx.off + 1) in
    Rel_db.relationship t.rels subject received_from = Rel_db.A_provider_of_b
    &&
    let cone = Rel_db.customer_cone t.rels subject in
    List.exists (fun (_, o) -> Rel_db.Asn_set.mem o cone) (covering t ctx)
  | _ -> false

(* Import Customer: filter names the (transit) customer the route comes
   from; relax the filter to ANY. *)
let import_customer_applies t ctx ~subject (fact : factor_fact) =
  match fact.factor.filter with
  | Ast.As_num (asn, _) ->
    asn = ctx.remote
    && Rel_db.relationship t.rels subject ctx.remote = Rel_db.A_provider_of_b
  | _ -> false

(* Missing routes: the filter names the origin AS (or a set containing
   it) but its route objects are stale/missing. *)
let missing_routes_applies t ctx (fact : factor_fact) =
  match fact.factor.filter with
  | Ast.As_num (asn, _) -> asn = ctx.origin
  | Ast.As_set_ref (name, _) ->
    Db.as_set_exists t.db name && Db.asn_in_as_set t.db name ctx.origin
  | _ -> false

let single_asn (pa : Ast.peering_action) =
  match pa.peering with
  | Ast.Peering_spec { as_expr = Ast.Asn asn; _ } -> Some asn
  | Ast.Peering_spec _ | Ast.Peering_set_ref _ -> None

(* Only Provider Policies: the subject's rules have peerings, and each
   names a single ASN that is one of its providers. *)
let only_provider_policies t ~subject =
  match Hashtbl.find_opt t.only_provider_memo subject with
  | Some cached -> cached
  | None ->
    let result =
      match Db.find_aut_num t.db subject with
      | None -> false
      | Some an ->
        let peerings = List.concat_map Ast.rule_peerings (an.imports @ an.exports) in
        peerings <> []
        && List.for_all
             (fun pa ->
               match single_asn pa with
               | Some asn -> Rel_db.relationship t.rels asn subject = Rel_db.A_provider_of_b
               | None -> false)
             peerings
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
  List.exists
    (function
      | Ast.Path_regex _ -> true
      | Ast.Filter_set_ref name ->
        let key = Rz_rpsl.Set_name.canonical name in
        (not (List.mem key visiting))
        && (match Db.find_filter_set t.db name with
            | None -> false
            | Some fs -> filter_reads_path t ~visiting:(key :: visiting) fs.filter)
      | _ -> false)
    (Ast.filter_leaves filter)

let policies_read_path t ~subject ~direction =
  let memo_key = dir_key subject direction in
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
              (fun (factor : Ast.factor) -> filter_reads_path t ~visiting:[] factor.filter)
              (Ast.rule_factors rule))
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
   policy. Building the record (prefix and rule rendering) only happens
   for sampled hops. *)
let emit_trace ~direction ~subject ~remote ~prefix ~path ~off ~memo (hop : Report.hop)
    (prov : prov option) =
  let cls = Status.class_label hop.Report.status in
  if Trace.should_sample cls then begin
    let prov = Option.value prov ~default:empty_prov in
    Trace.emit
      { Trace.seq = 0;  (* assigned by emit *)
        t_ns = Obs.now_ns ();
        domain = (Domain.self () :> int);
        direction = (match direction with `Export -> "export" | `Import -> "import");
        subject; remote;
        prefix = Rz_net.Prefix.to_string prefix;
        origin = origin_of ~remote path;
        path_len = Array.length path - off;
        verdict = Status.to_string hop.Report.status;
        verdict_class = cls;
        rule = prov.p_rule;
        filter_kind = prov.p_filter;
        as_sets = prov.p_sets;
        memo;
        trigger = trigger_of hop.Report.status }
  end

(* ---------------- verdict-mode rule index ---------------- *)

(* The ASNs a rule's peerings name, when it is indexable (see
   {!rule_index}); [None] for a residual rule. *)
let indexed_asns (rule : Ast.rule) =
  match rule.expr with
  | Ast.Except_e _ | Ast.Refine_e _ -> None
  | Ast.Term_e _ ->
    let peerings = Ast.rule_peerings rule in
    if List.for_all (fun pa -> single_asn pa <> None) peerings then
      Some (List.filter_map single_asn peerings)
    else None

let rule_has_actions rule =
  List.exists (fun (pa : Ast.peering_action) -> pa.actions <> []) (Ast.rule_peerings rule)

let build_rule_index rules =
  let by_remote = Hashtbl.create 16 and residual = ref [] in
  List.iteri
    (fun pos rule ->
      let c = { pos; rule; acts = rule_has_actions rule } in
      match indexed_asns rule with
      | None -> residual := c :: !residual
      | Some asns ->
        List.iter
          (fun asn ->
            match Hashtbl.find_opt by_remote asn with
            | Some (c' :: _) when c' == c -> ()  (* a rule naming [asn] twice *)
            | Some l -> Hashtbl.replace by_remote asn (c :: l)
            | None -> Hashtbl.replace by_remote asn [ c ])
          asns)
    rules;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) by_remote;
  { by_remote; residual = List.rev !residual }

let rule_index t ~subject ~direction rules =
  let key = dir_key subject direction in
  match Hashtbl.find t.rule_index key with
  | idx -> idx
  | exception Not_found ->
    let idx = build_rule_index rules in
    Hashtbl.replace t.rule_index key idx;
    idx

(* Visit two position-sorted rule lists merged, while [visit] returns
   [true]. *)
let rec iter_merged visit xs ys =
  match (xs, ys) with
  | [], [] -> ()
  | x :: xs', y :: _ when x.pos < y.pos -> if visit x then iter_merged visit xs' ys
  | x :: xs', [] -> if visit x then iter_merged visit xs' []
  | _, y :: ys' -> if visit y then iter_merged visit xs ys'

(* ---------------- hop verification ---------------- *)

let filter_matched (fact : factor_fact) =
  match fact.filter_outcome with Some Match -> true | _ -> false

let filter_failed (fact : factor_fact) =
  match fact.filter_outcome with Some NoMatch -> true | _ -> false

(* The attributes the first fully-matching factor's actions assign;
   [facts] in evaluation order. *)
let attrs_of facts =
  List.find_map
    (fun (fact : factor_fact) ->
      if filter_matched fact && fact.matched_actions <> [] then
        Result.to_option
          (Rz_policy.Action_eval.apply fact.matched_actions Rz_policy.Action_eval.empty)
      else None)
    facts

(* Note in [decider] the rule a trace record names: the first that
   matched, else the first consulted. [before] is the combined outcome
   of the rules consulted before [rule], [o] its own. *)
let note_decider decider ~before rule o =
  match (before, o) with
  | (NoMatch | Abstain _), Match -> decider := Some rule
  | _ -> if Option.is_none !decider then decider := Some rule

(* The two folds over a subject's [rules] in one direction. Each returns
   the rules' combined outcome, adds a fact per factor it evaluated to
   [facts] (in reverse order) and names the deciding rule in [decider].

   The full fold, for {!explain_hop}: every rule, in list order. *)
let full_fold t ctx ~subject:_ ~direction:_ rules facts decider =
  List.fold_left
    (fun before rule ->
      let o = eval_rule t ctx rule facts in
      note_decider decider ~before rule o;
      o_or before o)
    NoMatch rules

(* Verdict mode, for {!verify_hop}: the remote's candidate rules (its
   indexed ones and the residual ones, in list order) until the first
   [Match], then only later rules with actions, and only until a factor
   supplies the attrs. A rule it skips can only give [NoMatch]
   peerings: no abstain, no filter failure and no attrs, so the verdict
   is the full fold's. *)
let verdict_fold t ctx ~subject ~direction rules facts decider =
  let idx = rule_index t ~subject ~direction rules in
  let indexed =
    match Hashtbl.find idx.by_remote ctx.remote with l -> l | exception Not_found -> []
  in
  let attrs_found () =
    List.exists (fun fact -> filter_matched fact && fact.matched_actions <> []) !facts
    && Option.is_some (attrs_of (List.rev !facts))
  in
  let overall = ref NoMatch in
  let visit c =
    match !overall with
    | Match ->
      if c.acts then ignore (eval_rule t ctx c.rule facts : outcome);
      not (c.acts && attrs_found ())
    | (NoMatch | Abstain _) as before ->
      let o = eval_rule t ctx c.rule facts in
      note_decider decider ~before c.rule o;
      overall := o_or before o;
      (match o with Match -> not (attrs_found ()) | NoMatch | Abstain _ -> true)
  in
  iter_merged visit indexed idx.residual;
  !overall

let abstain_of (fact : factor_fact) =
  match (fact.peering_outcome, fact.filter_outcome) with
  | Abstain a, _ | _, Some (Abstain a) -> Some a
  | _ -> None

(* The first abstain [pick] accepts, over the factors in order and then
   the rules' combined outcome. *)
let first_abstain pick facts overall =
  match List.find_map (fun fact -> Option.bind (abstain_of fact) pick) facts with
  | Some _ as found -> found
  | None -> (match overall with Abstain a -> pick a | Match | NoMatch -> None)

(* Diagnostics, before [tail]: peering references of factors whose
   peering failed, and filter identities of factors whose filter
   failed. *)
let diagnostics facts tail =
  List.fold_right
    (fun (fact : factor_fact) acc ->
      match (fact.peering_outcome, fact.filter_outcome) with
      | Match, Some NoMatch ->
        (match fact.factor.filter with
         | Ast.As_num (asn, op) -> Report.Match_filter_as_num (asn, op)
         | Ast.As_set_ref (name, _) -> Report.Match_filter_as_set name
         | _ -> Report.Match_filter)
        :: acc
      | NoMatch, _ ->
        List.fold_right
          (fun (pa : Ast.peering_action) acc -> peering_refs acc pa.peering)
          fact.factor.peerings acc
      | _ -> acc)
    facts tail

(* Status, attrs, the status reason (the item that ends a non-Verified
   hop's diagnostics) and the peering-only bit of a hop, from its factor
   facts (in evaluation order) and the rules' combined outcome. Both
   folds decide here. *)
let decide t ctx ~direction ~subject facts overall =
  let remote = ctx.remote in
  match overall with
  | Match -> (Status.Verified, attrs_of facts, [], true)
  | NoMatch | Abstain _ ->
    let finish status reason =
      let peering_only =
        match status with
        | Status.Unverified -> not (List.exists filter_failed facts)
        | _ -> false
      in
      (status, None, reason, peering_only)
    in
    (* Precedence after Verified: Skip, Unrecorded, Relaxed,
       Safelisted, Unverified (Section 5). *)
    let skip = function A_skip r -> Some r | A_unrec _ -> None in
    let unrec = function A_unrec r -> Some r | A_skip _ -> None in
    (match first_abstain skip facts overall with
     | Some reason -> finish (Status.Skipped reason) [ Report.Skip reason ]
     | None ->
       (match first_abstain unrec facts overall with
        | Some reason -> finish (Status.Unrecorded reason) [ Report.Unrec reason ]
        | None ->
          (* Relaxed filters: only for factors whose peering matched
             but filter said no. *)
          let failed_and applies =
            List.exists (fun fact -> filter_failed fact && applies fact) facts
          in
          let relaxed =
            if direction = `Export && failed_and (export_self_applies t ctx ~subject) then
              Some Status.Export_self
            else if
              direction = `Import && failed_and (import_customer_applies t ctx ~subject)
            then Some Status.Import_customer
            else if failed_and (missing_routes_applies t ctx) then Some Status.Missing_routes
            else None
          in
          (match relaxed with
           | Some special -> finish (Status.Relaxed special) [ Report.Spec special ]
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
                     Rel_db.relationship t.rels remote subject = Rel_db.A_provider_of_b
                     && hop_len ctx >= 2
                     && Rel_db.relationship t.rels subject ctx.path.(ctx.off + 1)
                        = Rel_db.A_provider_of_b
                   | `Import ->
                     (* provider importing from its customer *)
                     Rel_db.relationship t.rels subject remote = Rel_db.A_provider_of_b
                 in
                 if uphill then Some Status.Uphill else None
               end
             in
             (match safelisted with
              | Some special -> finish (Status.Safelisted special) [ Report.Spec special ]
              | None -> finish Status.Unverified []))))

(* What one evaluation of one side of one hop found. [hop] has empty
   [items]; {!explain_at} builds them from [facts] (in evaluation order)
   and [reason]. [prov] is set while tracing, [deps] under
   [track_deps]. *)
type evaluation = {
  hop : Report.hop;
  facts : factor_fact list;
  reason : Report.item list;
  prov : prov option;
  deps : dep_note option;
}

(* Evaluate one side of one hop with [fold] ({!verdict_fold} or
   {!full_fold}). The provenance is built from the facts and the
   deciding rule of that fold. *)
let evaluate t ~fold ~direction ~subject ~remote ~prefix ~path ~off =
  let tracing = Trace.enabled () in
  let deps = if t.config.track_deps then Some (fresh_deps ()) else None in
  let from_as, to_as =
    match direction with `Export -> (subject, remote) | `Import -> (remote, subject)
  in
  let hop ?attrs status peering_only =
    count_status status;
    { Report.direction; from_as; to_as; status; items = []; attrs; peering_only }
  in
  let unrecorded reason =
    { hop = hop (Status.Unrecorded reason) false;
      facts = [];
      reason = [ Report.Unrec reason ];
      prov = (if tracing then Some empty_prov else None);
      deps }
  in
  match Db.find_aut_num t.db subject with
  | None -> unrecorded (Status.No_aut_num subject)
  | Some an ->
    let rules = match direction with `Import -> an.imports | `Export -> an.exports in
    if rules = [] then unrecorded Status.No_rules
    else begin
      let ctx = make_ctx ~trace:tracing ~deps ~prefix ~path ~off ~remote in
      let facts = ref [] and decider = ref None in
      let overall = fold t ctx ~subject ~direction rules facts decider in
      let facts = List.rev !facts in
      let status, attrs, reason, peering_only =
        decide t ctx ~direction ~subject facts overall
      in
      (* Provenance for the trace record: the deciding rule, the
         decisive filter's kind, the sets walked during evaluation. *)
      let prov =
        if not tracing then None
        else begin
          let decisive =
            List.find_opt
              (match overall with
               | Match -> filter_matched
               | NoMatch | Abstain _ ->
                 fun fact ->
                   (match fact.filter_outcome with
                    | Some NoMatch | Some (Abstain _) -> true
                    | _ -> false))
              facts
          in
          Some
            { p_rule = Option.map (fun r -> clip (Ast.rule_to_string r)) !decider;
              p_filter =
                Option.map (fun (f : factor_fact) -> filter_kind_label f.factor.filter) decisive;
              p_sets = List.rev ctx.sets_walked }
        end
      in
      { hop = hop ?attrs status peering_only; facts; reason; prov; deps }
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

(* One hop check in verdict mode, through the memo; the hop's path is
   [path.(off)] .. the last element. *)
let check_hop t ~direction ~subject ~remote ~prefix ~path ~off : Report.hop =
  let is_export = match direction with `Export -> true | `Import -> false in
  let key =
    { k_export = is_export;
      k_subject = subject;
      k_remote = remote;
      k_second =
        (if is_export && Array.length path - off >= 2 then path.(off + 1) else no_second_as);
      k_prefix = prefix;
      k_origin = origin_of ~remote path }
  in
  match if t.config.memoize then Hop_tbl.find t.hop_memo key else raise Not_found with
  | entry ->
    (* A stored verdict implies the subject's policies are path-free,
       so the hit path is a single probe. Cached verdicts still advance
       [verify.hops_total] and the per-status counters, preserving the
       golden-metrics invariant that the status counters sum to the hop
       total. *)
    Obs.Counter.incr c_memo_hits;
    count_status entry.e_hop.Report.status;
    if Trace.enabled () then
      emit_trace ~direction ~subject ~remote ~prefix ~path ~off ~memo:"hit" entry.e_hop
        entry.e_prov;
    entry.e_hop
  | exception Not_found ->
    let e = evaluate t ~fold:verdict_fold ~direction ~subject ~remote ~prefix ~path ~off in
    (* Path-dependent policies bypass the memo (nothing is inserted, so
       later identical keys cannot hit) and results stay bit-identical
       to an unmemoized engine. *)
    let memo_label =
      if not t.config.memoize then "computed"
      else if not (policies_read_path t ~subject ~direction) then begin
        Obs.Counter.incr c_memo_misses;
        Hop_tbl.add t.hop_memo key { e_hop = e.hop; e_prov = e.prov };
        if t.config.track_deps then index_entry t key e.deps;
        "miss"
      end
      else begin
        t.bypasses <- t.bypasses + 1;
        "bypass"
      end
    in
    if Trace.enabled () then
      emit_trace ~direction ~subject ~remote ~prefix ~path ~off ~memo:memo_label e.hop e.prov;
    e.hop

(* One hop check by the full fold, with the diagnostic items of a
   non-Verified hop. It neither reads nor writes the memo. *)
let explain_at t ~direction ~subject ~remote ~prefix ~path ~off : Report.hop =
  let e = evaluate t ~fold:full_fold ~direction ~subject ~remote ~prefix ~path ~off in
  if Trace.enabled () then
    emit_trace ~direction ~subject ~remote ~prefix ~path ~off ~memo:"computed" e.hop e.prov;
  match e.hop.status with
  | Status.Verified -> e.hop
  | Status.Skipped _ | Status.Unrecorded _ | Status.Relaxed _ | Status.Safelisted _
  | Status.Unverified ->
    { e.hop with items = diagnostics e.facts e.reason }

let verify_hop t ~direction ~subject ~remote ~prefix ~path =
  check_hop t ~direction ~subject ~remote ~prefix ~path ~off:0

let explain_hop t ~direction ~subject ~remote ~prefix ~path =
  explain_at t ~direction ~subject ~remote ~prefix ~path ~off:0

(* ---------------- churn-safe invalidation ---------------- *)

(* A policy-object change; see {!Db.edit}. The caller (the streaming
   engine) mutates its IR and patches the database ({!Db.patch}) first;
   {!apply_edits} then removes exactly the memoized state the change can
   reach. *)
type edit = Db.edit =
  | Edit_aut_num of Rz_net.Asn.t
  | Edit_set of string
  | Edit_route of Rz_net.Prefix.t * Rz_net.Asn.t

let rule_patterns rules =
  List.concat_map
    (fun (factor : Ast.factor) ->
      List.filter_map
        (function Ast.Path_regex r -> Some r | _ -> None)
        (Ast.filter_leaves factor.filter))
    (List.concat_map Ast.rule_factors rules)

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
        List.iter
          (fun direction ->
            Hashtbl.remove t.path_dep_memo (dir_key x direction);
            Hashtbl.remove t.rule_index (dir_key x direction))
          [ `Import; `Export ];
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

(* The hop checks of one route by [check] ({!check_hop} or
   {!explain_at}). *)
let walk_route check t (route : Rz_bgp.Route.t) : Report.route_report option =
  if Rz_bgp.Route.contains_as_set route then None
  else begin
    let path = Array.of_list (Rz_bgp.Route.dedup_path route) in
    let n = Array.length path in
    if n < 2 then None
    else begin
      (* The path is in collector order: element i is nearer the
         collector, element i+1 nearer the origin, and path.(n-1) is the
         origin. Hop i is exporter path.(i+1) -> importer path.(i), and
         the path announced across it is path.(i+1) .. the origin. The
         hops are walked origin-side first. *)
      let hops = ref [] in
      for i = n - 2 downto 0 do
        let exporter = path.(i + 1) and importer = path.(i) in
        let export_hop =
          check t ~direction:`Export ~subject:exporter ~remote:importer ~prefix:route.prefix
            ~path ~off:(i + 1)
        in
        let import_hop =
          check t ~direction:`Import ~subject:importer ~remote:exporter ~prefix:route.prefix
            ~path ~off:(i + 1)
        in
        hops := import_hop :: export_hop :: !hops
      done;
      (* hops were accumulated collector-side-first; the paper reports
         origin-side first. *)
      Some { Report.route; hops = List.rev !hops }
    end
  end

let timed_route check t route =
  if not (Obs.enabled ()) then walk_route check t route
  else begin
    let t0 = Obs.now_ns () in
    let result = walk_route check t route in
    let elapsed = Obs.now_ns () - t0 in
    (match result with
     | Some _ ->
       Obs.Counter.incr c_routes;
       Obs.Histogram.observe h_route_ns (float_of_int elapsed)
     | None -> Obs.Counter.incr c_routes_excluded);
    result
  end

let verify_route t route = timed_route check_hop t route
let explain_route t route = timed_route explain_at t route

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
  Array.iteri
    (fun i route ->
      if i = 0 || by_prefix routes.(i - 1) route <> 0 then clear_hop_memo t;
      f route (verify_route t route))
    routes
