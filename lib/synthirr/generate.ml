module Splitmix = Rz_util.Splitmix
module Gen = Rz_topology.Gen
module Rel_db = Rz_asrel.Rel_db

type persona =
  | No_aut_num
  | No_rules
  | Regular
  | Only_provider
  | Any_any
  | Complex

type profile = {
  asn : Rz_net.Asn.t;
  persona : persona;
  export_self : bool;
  import_customer : bool;
  uses_mp : bool;
  has_route_set : bool;
  has_self_set : bool;
  home_irr : string;
  dropped_neighbors : Rz_net.Asn.t list;
  mnt : string;  (** maintainer handle; siblings share one *)
}

type world = {
  topo : Rz_topology.Gen.t;
  config : Config.t;
  profiles : (Rz_net.Asn.t, profile) Hashtbl.t;
  dumps : (string * string) list;
}

let irr_names =
  [ "APNIC"; "AFRINIC"; "ARIN"; "LACNIC"; "RIPE"; "IDNIC"; "JPIRR"; "RADB";
    "NTTCOM"; "LEVEL3"; "TC"; "REACH"; "ALTDB" ]

(* Home-IRR weights shaped like the paper's Table 1 object counts. *)
let irr_weights =
  [ (0.15, "APNIC"); (0.03, "AFRINIC"); (0.04, "ARIN"); (0.02, "LACNIC");
    (0.45, "RIPE"); (0.03, "IDNIC"); (0.01, "JPIRR"); (0.12, "RADB");
    (0.04, "NTTCOM"); (0.02, "LEVEL3"); (0.05, "TC"); (0.01, "REACH");
    (0.03, "ALTDB") ]

let cone_set_name asn = Printf.sprintf "AS%d:AS-CUST" asn
let self_set_name asn = Printf.sprintf "AS%d:AS-SELF" asn
let route_set_name asn = Printf.sprintf "AS%d:RS-ROUTES" asn
let maintainer asn = Printf.sprintf "MNT-AS%d" asn

(* ---------------- RPSL emission helpers ---------------- *)

type writer = (string, Buffer.t) Hashtbl.t

let buffer_of (w : writer) irr =
  match Hashtbl.find_opt w irr with
  | Some b -> b
  | None ->
    let b = Buffer.create 65536 in
    Hashtbl.replace w irr b;
    b

let emit w irr attrs =
  let b = buffer_of w irr in
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s:%s%s\n" k (if v = "" then "" else " ") v))
    attrs;
  Buffer.add_char b '\n'

(* ---------------- persona assignment ---------------- *)

let assign_profiles (config : Config.t) (topo : Gen.t) rng =
  let profiles = Hashtbl.create 512 in
  Array.iteri
    (fun idx asn ->
      let is_transit = Rel_db.customers topo.rels asn <> [] in
      let tier = Gen.tier topo asn in
      let home_irr = Splitmix.weighted rng irr_weights in
      let base_persona =
        match tier with
        | Gen.Tier1 ->
          (* The paper finds extreme variance at the top: some Tier-1s have
             zero rules, others thousands. *)
          Splitmix.weighted rng
            [ (0.3, No_rules); (0.2, Any_any); (0.4, Regular); (0.1, Complex) ]
        | Gen.Mid | Gen.Stub ->
          Splitmix.weighted rng
            [ (config.p_no_aut_num, No_aut_num);
              (config.p_no_rules, No_rules);
              (config.p_any_any, Any_any);
              (config.p_complex, Complex);
              ((if is_transit then config.p_only_provider else 0.0001), Only_provider);
              ( 1.0 -. config.p_no_aut_num -. config.p_no_rules -. config.p_any_any
                -. config.p_complex -. config.p_only_provider,
                Regular ) ]
      in
      (* The LACNIC dump carries no import/export rules at all. *)
      let persona =
        if home_irr = "LACNIC" && base_persona <> No_aut_num then No_rules
        else base_persona
      in
      let writes_rules =
        match persona with
        | Regular | Only_provider | Complex -> true
        | No_aut_num | No_rules | Any_any -> false
      in
      let dropped_neighbors =
        (* Undeclared peerings concentrate at ASes with many sessions (the
           paper's Figure 3); never strip an AS's only covered neighbor,
           which would masquerade as the separate "zero rules" category. *)
        if writes_rules then begin
          let neighbors = Rel_db.neighbors topo.rels asn in
          if List.length neighbors < 2 then []
          else begin
            let dropped =
              List.filter
                (fun _ -> Splitmix.chance rng config.p_neighbor_rule_missing)
                neighbors
            in
            if List.length dropped = List.length neighbors then List.tl dropped
            else dropped
          end
        end
        else []
      in
      (* a few organizations run several ASNs under one maintainer (the
         sibling signal as2org-style pipelines mine) *)
      let mnt =
        if idx > 0 && Splitmix.chance rng 0.05 then
          maintainer topo.ases.(Splitmix.int rng idx)
        else maintainer asn
      in
      Hashtbl.replace profiles asn
        { asn;
          persona;
          mnt;
          export_self = is_transit && Splitmix.chance rng config.p_export_self;
          import_customer = is_transit && Splitmix.chance rng config.p_import_customer;
          uses_mp = Splitmix.chance rng config.p_mp_rules;
          has_route_set = is_transit && Splitmix.chance rng config.p_route_set_defined;
          has_self_set =
            (not is_transit) && Splitmix.chance rng config.p_singleton_set;
          home_irr;
          dropped_neighbors })
    topo.ases;
  profiles

(* ---------------- rule text generation ---------------- *)

(* The filter an AS uses to describe "my own routes and my customers'":
   the cone as-set for transit ASes (unless misusing export-self), the
   bare ASN otherwise. *)
let self_filter (profiles : (int, profile) Hashtbl.t) topo asn =
  let p = Hashtbl.find profiles asn in
  let is_transit = Rel_db.customers topo.Gen.rels asn <> [] in
  if is_transit && not p.export_self then cone_set_name asn
  else if p.has_self_set then self_set_name asn
  else Printf.sprintf "AS%d" asn

(* The filter an AS uses for routes arriving from a neighbor [n]. *)
let neighbor_filter (config : Config.t) profiles topo rng n =
  let np : profile = Hashtbl.find profiles n in
  let n_transit = Rel_db.customers topo.Gen.rels n <> [] in
  if n_transit && np.has_route_set && Splitmix.chance rng config.p_filter_uses_route_set
  then route_set_name n
  else if n_transit then cone_set_name n
  else Printf.sprintf "AS%d" n

let rule_attr (p : profile) direction body =
  let base = match direction with `Import -> "import" | `Export -> "export" in
  if p.uses_mp then ("mp-" ^ base, "afi any.unicast " ^ body) else (base, body)

(* Regular / Only_provider / Complex rule bodies for one AS. *)
let rules_for (config : Config.t) profiles (topo : Gen.t) rng (p : profile) =
  let rels = topo.rels in
  let asn = p.asn in
  let covered n = not (List.mem n p.dropped_neighbors) in
  let rules = ref [] in
  let add direction body = rules := rule_attr p direction body :: !rules in
  let providers = Rel_db.providers rels asn in
  let peers = Rel_db.peers rels asn in
  let customers = Rel_db.customers rels asn in
  (* Providers: import everything, export self/cone. *)
  List.iter
    (fun prov ->
      if covered prov then begin
        add `Import (Printf.sprintf "from AS%d accept ANY" prov);
        add `Export
          (Printf.sprintf "to AS%d announce %s" prov (self_filter profiles topo asn))
      end)
    providers;
  if p.persona <> Only_provider then begin
    (* Peers: accept the peer's routes, export self/cone. A Complex AS
       writes its first peer's import against a BGP community — the
       construct the verifier must Skip (the paper's 114 skipped rules). *)
    (* A Complex transit AS writes one import against a BGP community —
       the construct the verifier must Skip (the paper's 114 skipped
       rules). Pin it to the first customer (whose uphill routes collectors
       actually observe), falling back to the first peer. *)
    let community_peer =
      match (p.persona, customers, peers) with
      | Complex, cust :: _, _ -> Some cust
      | Complex, [], peer :: _ -> Some peer
      | _ -> None
    in
    List.iter
      (fun peer ->
        if community_peer = Some peer then begin
          add `Import (Printf.sprintf "from AS%d accept community(65535:666)" peer);
          add `Export
            (Printf.sprintf "to AS%d announce %s" peer (self_filter profiles topo asn))
        end
        else if covered peer then begin
          add `Import
            (Printf.sprintf "from AS%d accept %s" peer
               (neighbor_filter config profiles topo rng peer));
          add `Export
            (Printf.sprintf "to AS%d announce %s" peer (self_filter profiles topo asn))
        end)
      peers;
    (* Customers: import their cone (or the import-customer misuse),
       export full table. *)
    List.iter
      (fun cust ->
        if community_peer = Some cust then begin
          add `Import (Printf.sprintf "from AS%d accept community(65535:666)" cust);
          add `Export (Printf.sprintf "to AS%d announce ANY" cust)
        end
        else if covered cust then begin
          let filter =
            if p.import_customer then Printf.sprintf "AS%d" cust
            else neighbor_filter config profiles topo rng cust
          in
          add `Import (Printf.sprintf "from AS%d accept %s" cust filter);
          add `Export (Printf.sprintf "to AS%d announce ANY" cust)
        end)
      customers
  end;
  (* Compound extras for the Complex persona. *)
  if p.persona = Complex then begin
    (match providers with
     | prov :: _ ->
       let steer =
         match customers with c :: _ -> c | [] -> asn
       in
       rules :=
         ( "mp-import",
           Printf.sprintf
             "afi any.unicast from AS%d accept ANY AND NOT {0.0.0.0/0, ::/0} REFINE afi \
              ipv4.unicast from AS%d action pref=200; accept <^AS%d .* AS%d$>"
             prov prov prov steer )
         :: !rules
     | [] -> ());
    (match peers with
     | peer :: _ ->
       rules :=
         ( "import",
           Printf.sprintf
             "from AS%d action pref = 100; community .= { 65000:%d }; accept PeerAS"
             peer (asn mod 1000) )
         :: !rules
     | [] -> ());
    (* exercise peering-set and filter-set references, the rare object
       kinds Table 2 tracks *)
    let idx = 1 + (asn mod config.n_peering_sets) in
    let fidx = 1 + (asn mod config.n_filter_sets) in
    rules :=
      ("import", Printf.sprintf "from PRNG-SYNTH-%d accept FLTR-SYNTH-%d" idx fidx)
      :: !rules;
  end;
  List.rev !rules

(* ---------------- object emission ---------------- *)

let emit_aut_num config profiles topo rng w ~member_of (p : profile) =
  if p.persona <> No_aut_num then begin
    let rules =
      match p.persona with
      | No_aut_num | No_rules -> []
      | Any_any ->
        [ rule_attr p `Import "from AS-ANY accept ANY";
          rule_attr p `Export "to AS-ANY announce ANY" ]
      | Regular | Only_provider | Complex -> rules_for config profiles topo rng p
    in
    (* stubs often register a default route toward their main provider *)
    let rules =
      match (p.persona, Rel_db.providers topo.rels p.asn) with
      | (Regular | Complex), prov :: _
        when Rel_db.customers topo.rels p.asn = [] && Splitmix.chance rng 0.3 ->
        rules @ [ ("default", Printf.sprintf "to AS%d action pref=100; networks ANY" prov) ]
      | _ -> rules
    in
    let member_of_attrs =
      if List.mem p.asn member_of then [ ("member-of", "AS-COOPERATIVE") ] else []
    in
    emit w p.home_irr
      ([ ("aut-num", Printf.sprintf "AS%d" p.asn);
         ("as-name", Printf.sprintf "NET-%d" p.asn) ]
       @ rules @ member_of_attrs
       @ [ ("mnt-by", p.mnt); ("source", p.home_irr) ])
  end

let emit_as_set config topo rng w (profiles : (int, profile) Hashtbl.t) (p : profile) =
  let customers = Rel_db.customers topo.Gen.rels p.asn in
  if customers <> [] && p.persona <> No_aut_num then begin
    (* Cone set: self plus, per customer, either its ASN (stub) or its own
       cone set (transit) — this is where real-world recursive as-set
       structure comes from. Members are dropped at the configured
       staleness rate. *)
    let members =
      Printf.sprintf "AS%d" p.asn
      :: List.filter_map
           (fun c ->
             if Splitmix.chance rng config.Config.p_as_set_member_missing then None
             else if Rel_db.customers topo.Gen.rels c <> [] then Some (cone_set_name c)
             else Some (Printf.sprintf "AS%d" c))
           customers
    in
    emit w p.home_irr
      [ ("as-set", cone_set_name p.asn);
        ("members", String.concat ", " members);
        ("mnt-by", maintainer p.asn);
        ("source", p.home_irr) ];
    if Splitmix.chance rng config.Config.p_dup_in_radb && p.home_irr <> "RADB" then
      emit w "RADB"
        [ ("as-set", cone_set_name p.asn);
          ("members", String.concat ", " members);
          ("mnt-by", maintainer p.asn);
          ("source", "RADB") ]
  end;
  ignore profiles

let emit_self_set w (p : profile) =
  if p.has_self_set && p.persona <> No_aut_num then
    emit w p.home_irr
      [ ("as-set", self_set_name p.asn);
        ("members", Printf.sprintf "AS%d" p.asn);
        ("mnt-by", maintainer p.asn);
        ("source", p.home_irr) ]

let emit_route_set topo rng w (p : profile) =
  if p.has_route_set && p.persona <> No_aut_num then begin
    let prefixes = Gen.prefixes_of topo p.asn in
    let members =
      List.map
        (fun prefix ->
          let text = Rz_net.Prefix.to_string prefix in
          if Splitmix.chance rng 0.3 then text ^ "^+" else text)
        prefixes
    in
    (* Transit route-sets also pull in customer routes via the customers'
       ASNs (RFC 2622 allows ASN members in route-sets). *)
    let customer_members =
      List.map (fun c -> Printf.sprintf "AS%d" c) (Rel_db.customers topo.Gen.rels p.asn)
    in
    emit w p.home_irr
      [ ("route-set", route_set_name p.asn);
        ("members", String.concat ", " (members @ customer_members));
        ("mnt-by", maintainer p.asn);
        ("source", p.home_irr) ]
  end

let emit_routes config topo rng w (profiles : (int, profile) Hashtbl.t) (p : profile) =
  let all_asns = topo.Gen.ases in
  List.iter
    (fun prefix ->
      let missing = Splitmix.chance rng config.Config.p_route_missing in
      let cls = if Rz_net.Prefix.is_v4 prefix then "route" else "route6" in
      let text = Rz_net.Prefix.to_string prefix in
      if not missing then begin
        emit w p.home_irr
          [ (cls, text);
            ("origin", Printf.sprintf "AS%d" p.asn);
            ("mnt-by", maintainer p.asn);
            ("source", p.home_irr) ];
        if Splitmix.chance rng config.Config.p_dup_in_radb && p.home_irr <> "RADB" then
          emit w "RADB"
            [ (cls, text);
              ("origin", Printf.sprintf "AS%d" p.asn);
              ("mnt-by", maintainer p.asn);
              ("source", "RADB") ]
      end;
      (* A provider registering its customer's route: same pair, another
         maintainer, the provider's home IRR. *)
      (match Rel_db.providers topo.Gen.rels p.asn with
       | prov :: _ when Splitmix.chance rng config.Config.p_route_foreign_mnt ->
         let prov_profile = Hashtbl.find profiles prov in
         emit w prov_profile.home_irr
           [ (cls, text);
             ("origin", Printf.sprintf "AS%d" p.asn);
             ("mnt-by", maintainer prov);
             ("source", prov_profile.home_irr) ]
       | _ -> ());
      (* Stale object with a wrong origin, the hygiene problem the paper
         quantifies (40x more multi-origin prefixes than BGP). *)
      if Splitmix.chance rng config.Config.p_route_stale_origin then begin
        let other = all_asns.(Splitmix.int rng (Array.length all_asns)) in
        if other <> p.asn then
          emit w "RADB"
            [ (cls, text);
              ("origin", Printf.sprintf "AS%d" other);
              ("mnt-by", maintainer other);
              ("source", "RADB") ]
      end)
    (Gen.prefixes_of topo p.asn)

(* Deliberate anomaly objects: empty sets, loops, ANY members, invalid
   names, deep chains, syntax errors, peering-sets, filter-sets. *)
let emit_anomalies (config : Config.t) rng w =
  for i = 1 to config.n_empty_as_sets do
    emit w "RADB" [ ("as-set", Printf.sprintf "AS-EMPTY-%d" i); ("source", "RADB") ]
  done;
  for i = 1 to config.n_loop_as_sets do
    emit w "RADB"
      [ ("as-set", Printf.sprintf "AS-LOOP-%d-A" i);
        ("members", Printf.sprintf "AS-LOOP-%d-B, AS%d" i (64000 + i));
        ("source", "RADB") ];
    emit w "RADB"
      [ ("as-set", Printf.sprintf "AS-LOOP-%d-B" i);
        ("members", Printf.sprintf "AS-LOOP-%d-A" i);
        ("source", "RADB") ]
  done;
  for i = 1 to config.n_any_member_sets do
    emit w "RADB"
      [ ("as-set", Printf.sprintf "AS-HASANY-%d" i);
        ("members", "ANY");
        ("source", "RADB") ]
  done;
  for i = 1 to config.n_invalid_set_names do
    (* Invalid names: missing the AS-/RS- prefix, or a reserved word. *)
    let name = if i = 1 then "AS-ANY" else Printf.sprintf "BADSET-%d" i in
    emit w "RADB" [ ("as-set", name); ("members", "AS64500"); ("source", "RADB") ]
  done;
  for c = 1 to config.n_deep_set_chains do
    for depth = 1 to 6 do
      let members =
        if depth = 6 then Printf.sprintf "AS%d" (64100 + c)
        else Printf.sprintf "AS-DEEP-%d-%d" c (depth + 1)
      in
      emit w "RADB"
        [ ("as-set", Printf.sprintf "AS-DEEP-%d-%d" c depth);
          ("members", members);
          ("source", "RADB") ]
    done
  done;
  for i = 1 to config.n_syntax_errors do
    if i mod 2 = 0 then
      (* Broken rule keyword inside an otherwise fine aut-num. *)
      emit w "RADB"
        [ ("aut-num", Printf.sprintf "AS%d" (64200 + i));
          ("as-name", "BROKEN");
          ("import", "from accept ANY");
          ("source", "RADB") ]
    else
      (* Out-of-place text: a broken comma-separated members list. *)
      emit w "RADB"
        [ ("as-set", Printf.sprintf "AS-BROKEN-%d" i);
          ("members", "AS1,, ,AS_bad name");
          ("source", "RADB") ]
  done;
  for i = 1 to config.n_peering_sets do
    emit w "RIPE"
      [ ("peering-set", Printf.sprintf "PRNG-SYNTH-%d" i);
        ("peering", Printf.sprintf "AS%d" (1000 + (i * 7)));
        ("source", "RIPE") ]
  done;
  for i = 1 to config.n_filter_sets do
    emit w "RIPE"
      [ ("filter-set", Printf.sprintf "FLTR-SYNTH-%d" i);
        ("filter", "{ 0.0.0.0/0^0-24 } AND NOT { 10.0.0.0/8^+, 192.168.0.0/16^+ }");
        ("source", "RIPE") ]
  done;
  ignore rng

(* Members-by-reference showcase: one cooperative as-set whose members
   join indirectly via member-of on their own aut-nums (the attribute is
   added by emit_aut_num for the chosen ASes). *)
let emit_cooperative_set w members =
  emit w "RIPE"
    [ ("as-set", "AS-COOPERATIVE");
      ("mbrs-by-ref", String.concat ", " (List.map maintainer members));
      ("source", "RIPE") ]

let c_dumps = Rz_obs.Obs.Counter.make "synthirr.dumps_total"
let c_bytes = Rz_obs.Obs.Counter.make "synthirr.bytes_total"

let generate ?(config = Config.default) (topo : Gen.t) =
  Rz_obs.Obs.Span.with_ "generate" @@ fun () ->
  let rng = Splitmix.create config.seed in
  let profiles = assign_profiles config topo rng in
  let w : writer = Hashtbl.create 13 in
  (* Ensure all 13 dumps exist even if tiny. *)
  List.iter (fun irr -> ignore (buffer_of w irr)) irr_names;
  let cooperative_members =
    let candidates =
      Array.to_list topo.ases
      |> List.filter (fun asn -> (Hashtbl.find profiles asn).persona <> No_aut_num)
    in
    Array.to_list (Splitmix.sample rng 2 (Array.of_list candidates))
  in
  Array.iter
    (fun asn ->
      let p = Hashtbl.find profiles asn in
      emit_aut_num config profiles topo rng w ~member_of:cooperative_members p;
      (* maintainer objects back the mnt-by references; a few are missing
         (dangling), as in real registries *)
      if p.persona <> No_aut_num && not (Splitmix.chance rng 0.05) then
        emit w p.home_irr
          [ ("mntner", p.mnt);
            ("auth", "PGPKEY-SYNTH");
            ("source", p.home_irr) ];
      emit_as_set config topo rng w profiles p;
      emit_self_set w p;
      emit_route_set topo rng w p;
      emit_routes config topo rng w profiles p)
    topo.ases;
  emit_anomalies config rng w;
  emit_cooperative_set w cooperative_members;
  let dumps = List.map (fun irr -> (irr, Buffer.contents (buffer_of w irr))) irr_names in
  Rz_obs.Obs.Counter.add c_dumps (List.length dumps);
  Rz_obs.Obs.Counter.add c_bytes
    (List.fold_left (fun acc (_, text) -> acc + String.length text) 0 dumps);
  { topo; config; profiles; dumps }
