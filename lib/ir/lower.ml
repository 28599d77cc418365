let canon = Rz_rpsl.Set_name.canonical

(* Observability: lowering volume and error counters, plus the "parse"
   and "lower" phase spans every dump passes through. *)
let c_objects_lowered = Rz_obs.Obs.Counter.make "ir.objects_lowered_total"
let c_rules = Rz_obs.Obs.Counter.make "ir.rules_total"
let c_errors = Rz_obs.Obs.Counter.make "ir.errors_total"

let push_error (ir : Ir.t) kind (obj : Rz_rpsl.Obj.t) source =
  Rz_obs.Obs.Counter.incr c_errors;
  ir.errors <- { Ir.kind; cls = obj.cls; obj_name = obj.name; source } :: ir.errors

type rule_parser =
  direction:[ `Import | `Export ] ->
  multiprotocol:bool ->
  string ->
  (Rz_policy.Ast.rule, string) result

let lower_rule = Rz_policy.Parser.parse_rule

(* Fold the newline continuations inside attribute values into spaces
   before feeding the policy parser; values without continuations (the
   vast majority) pass through without a copy. *)
let flat value =
  if String.contains value '\n' then
    String.map (fun c -> if c = '\n' then ' ' else c) value
  else value

let lower_rules ~parse ir obj source ~attr ~direction ~multiprotocol =
  List.filter_map
    (fun value ->
      match parse ~direction ~multiprotocol (flat value) with
      | Ok rule ->
        Rz_obs.Obs.Counter.incr c_rules;
        Some rule
      | Error msg ->
        push_error ir (Ir.Syntax_error (attr ^ ": " ^ msg)) obj source;
        None)
    (Rz_rpsl.Obj.values obj attr)

let split_names value =
  Rz_policy.Parser.parse_members (flat value)

let multi_names split obj attr =
  List.concat_map split (Rz_rpsl.Obj.values obj attr)

(* Every gate below is [not (Hashtbl.mem ...)]: the IR's tables carry
   first-definition-wins, across dumps (fed in priority order) and
   within one. Errors outside the gate (name validity, bad prefixes)
   stay unconditional, so shadowed duplicates emit them too. *)

let lower_aut_num ~parse ~split ir (obj : Rz_rpsl.Obj.t) source =
  match Rz_net.Asn.of_string obj.name with
  | Error msg -> push_error ir (Ir.Syntax_error ("aut-num name: " ^ msg)) obj source
  | Ok asn ->
    if not (Hashtbl.mem ir.Ir.aut_nums asn) then begin
      let imports =
        lower_rules ~parse ir obj source ~attr:"import" ~direction:`Import ~multiprotocol:false
        @ lower_rules ~parse ir obj source ~attr:"mp-import" ~direction:`Import ~multiprotocol:true
      in
      let exports =
        lower_rules ~parse ir obj source ~attr:"export" ~direction:`Export ~multiprotocol:false
        @ lower_rules ~parse ir obj source ~attr:"mp-export" ~direction:`Export ~multiprotocol:true
      in
      let lower_defaults attr multiprotocol =
        List.filter_map
          (fun value ->
            match Rz_policy.Parser.parse_default ~multiprotocol (flat value) with
            | Ok d -> Some d
            | Error msg ->
              push_error ir (Ir.Syntax_error (attr ^ ": " ^ msg)) obj source;
              None)
          (Rz_rpsl.Obj.values obj attr)
      in
      let defaults =
        lower_defaults "default" false @ lower_defaults "mp-default" true
      in
      Hashtbl.replace ir.aut_nums asn
        { Ir.asn;
          as_name = Option.value ~default:"" (Rz_rpsl.Obj.value obj "as-name");
          imports;
          exports;
          defaults;
          member_of = multi_names split obj "member-of";
          mnt_by = multi_names split obj "mnt-by";
          source }
    end

(* Split an as-set member into ASN or nested set, flagging the reserved
   word ANY (a misuse the paper found three times). *)
type as_member = M_asn of Rz_net.Asn.t | M_set of string | M_any | M_bad of string

let classify_as_member name =
  let upper = Rz_util.Strings.uppercase name in
  if upper = "ANY" || upper = "AS-ANY" then M_any
  else
    match Rz_net.Asn.of_string name with
    | Ok asn when Rz_util.Strings.starts_with_ci ~prefix:"AS" name -> M_asn asn
    | _ ->
      if Rz_rpsl.Set_name.is_valid Rz_rpsl.Set_name.As_set name then M_set name
      else M_bad name

let lower_as_set ~split ir (obj : Rz_rpsl.Obj.t) source =
  let key = canon obj.name in
  if not (Rz_rpsl.Set_name.is_valid Rz_rpsl.Set_name.As_set obj.name) then
    push_error ir Ir.Invalid_as_set_name obj source;
  if not (Hashtbl.mem ir.Ir.as_sets key) then begin
    let members = multi_names split obj "members" @ multi_names split obj "mp-members" in
    let member_asns = ref [] and member_sets = ref [] and contains_any = ref false in
    List.iter
      (fun m ->
        match classify_as_member m with
        | M_asn asn -> member_asns := asn :: !member_asns
        | M_set s -> member_sets := s :: !member_sets
        | M_any -> contains_any := true
        | M_bad name ->
          push_error ir (Ir.Syntax_error (Printf.sprintf "bad as-set member %S" name)) obj
            source)
      members;
    Hashtbl.replace ir.as_sets key
      { Ir.name = obj.name;
        member_asns = List.rev !member_asns;
        member_sets = List.rev !member_sets;
        contains_any = !contains_any;
        mbrs_by_ref = multi_names split obj "mbrs-by-ref";
        mnt_by = multi_names split obj "mnt-by";
        source }
  end

let classify_route_member name =
  let base, op =
    match String.index_opt name '^' with
    | None -> (name, Ok Rz_net.Range_op.None_)
    | Some i ->
      (String.sub name 0 i, Rz_net.Range_op.parse (String.sub name i (String.length name - i)))
  in
  match op with
  | Error e -> Error e
  | Ok op ->
    (match Rz_net.Prefix.of_string base with
     | Ok p -> Ok (Ir.Rs_prefix (p, op))
     | Error _ ->
       (match Rz_net.Asn.of_string base with
        | Ok asn when Rz_util.Strings.starts_with_ci ~prefix:"AS" base ->
          Ok (Ir.Rs_asn (asn, op))
        | _ ->
          if
            Rz_rpsl.Set_name.is_valid Rz_rpsl.Set_name.Route_set base
            || Rz_rpsl.Set_name.is_valid Rz_rpsl.Set_name.As_set base
          then Ok (Ir.Rs_set (base, op))
          else Error (Printf.sprintf "bad route-set member %S" name)))

let lower_route_set ~split ir (obj : Rz_rpsl.Obj.t) source =
  let key = canon obj.name in
  if not (Rz_rpsl.Set_name.is_valid Rz_rpsl.Set_name.Route_set obj.name) then
    push_error ir Ir.Invalid_route_set_name obj source;
  if not (Hashtbl.mem ir.Ir.route_sets key) then begin
    let raw = multi_names split obj "members" @ multi_names split obj "mp-members" in
    let members =
      List.filter_map
        (fun m ->
          match classify_route_member m with
          | Ok member -> Some member
          | Error e ->
            push_error ir (Ir.Syntax_error e) obj source;
            None)
        raw
    in
    Hashtbl.replace ir.route_sets key
      { Ir.name = obj.name;
        members;
        mbrs_by_ref = multi_names split obj "mbrs-by-ref";
        mnt_by = multi_names split obj "mnt-by";
        source }
  end

let lower_peering_set ir (obj : Rz_rpsl.Obj.t) source =
  let key = canon obj.name in
  if not (Rz_rpsl.Set_name.is_valid Rz_rpsl.Set_name.Peering_set obj.name) then
    push_error ir Ir.Invalid_peering_set_name obj source;
  if not (Hashtbl.mem ir.Ir.peering_sets key) then begin
    let values =
      Rz_rpsl.Obj.values obj "peering" @ Rz_rpsl.Obj.values obj "mp-peering"
    in
    let peerings =
      List.filter_map
        (fun v ->
          match Rz_policy.Parser.parse_peering (flat v) with
          | Ok p -> Some p
          | Error e ->
            push_error ir (Ir.Syntax_error ("peering: " ^ e)) obj source;
            None)
        values
    in
    Hashtbl.replace ir.peering_sets key { Ir.name = obj.name; peerings; source }
  end

let lower_filter_set ir (obj : Rz_rpsl.Obj.t) source =
  let key = canon obj.name in
  if not (Rz_rpsl.Set_name.is_valid Rz_rpsl.Set_name.Filter_set obj.name) then
    push_error ir Ir.Invalid_filter_set_name obj source;
  if not (Hashtbl.mem ir.Ir.filter_sets key) then begin
    (* [filter] preferred, [mp-filter] as fallback *)
    match (Rz_rpsl.Obj.value obj "filter", Rz_rpsl.Obj.value obj "mp-filter") with
    | None, None -> push_error ir (Ir.Syntax_error "filter-set without filter") obj source
    | Some v, _ | None, Some v ->
      (match Rz_policy.Parser.parse_filter (flat v) with
       | Ok filter ->
         Hashtbl.replace ir.filter_sets key { Ir.name = obj.name; filter; source }
       | Error e -> push_error ir (Ir.Syntax_error ("filter: " ^ e)) obj source)
  end

(* Route object identity is (prefix, origin); duplicates across IRRs are
   dropped but distinct origins for the same prefix are kept. *)
let lower_route ~split ir (obj : Rz_rpsl.Obj.t) source =
  match Rz_net.Prefix.of_string obj.name with
  | Error e -> push_error ir (Ir.Bad_prefix e) obj source
  | Ok prefix ->
    (match Rz_rpsl.Obj.value obj "origin" with
     | None -> push_error ir (Ir.Bad_origin "missing origin attribute") obj source
     | Some origin_text ->
       (match Rz_net.Asn.of_string origin_text with
        | Error e -> push_error ir (Ir.Bad_origin e) obj source
        | Ok origin ->
          let key = (prefix, origin) in
          if not (Hashtbl.mem ir.Ir.route_seen key) then
            Ir.add_route ir ~prefix ~origin
              ~member_of:(multi_names split obj "member-of")
              ~mnt_by:(multi_names split obj "mnt-by")
              ~source))

let lower_mntner ir (obj : Rz_rpsl.Obj.t) source =
  let key = Rz_util.Strings.uppercase obj.name in
  if not (Hashtbl.mem ir.Ir.mntners key) then
    Hashtbl.replace ir.mntners key
      { Ir.name = obj.name; auth = Rz_rpsl.Obj.values obj "auth"; source }

(* inet-rtr peer attribute: "BGP4 192.0.2.1 asno(AS65001)" (protocol,
   peer address, options); we extract the address and the asno. *)
let parse_bgp_peer value =
  let words = Rz_util.Strings.split_words value in
  let addr = List.nth_opt (List.filter (fun w -> not (Rz_util.Strings.equal_ci w "BGP4")) words) 0 in
  let asno =
    List.find_map
      (fun w ->
        if Rz_util.Strings.starts_with_ci ~prefix:"asno(" w then
          let inner = String.sub w 5 (String.length w - 5) in
          let inner = Rz_util.Strings.chop_comment ')' inner in
          Result.to_option (Rz_net.Asn.of_string inner)
        else None)
      words
  in
  match (addr, asno) with Some a, Some n -> Some (a, n) | _ -> None

let lower_inet_rtr ~split ir (obj : Rz_rpsl.Obj.t) source =
  let key = Rz_util.Strings.lowercase obj.name in
  if not (Hashtbl.mem ir.Ir.inet_rtrs key) then begin
    let local_as =
      Option.bind (Rz_rpsl.Obj.value obj "local-as") (fun v ->
          Result.to_option (Rz_net.Asn.of_string v))
    in
    let bgp_peers =
      List.filter_map parse_bgp_peer
        (Rz_rpsl.Obj.values obj "peer" @ Rz_rpsl.Obj.values obj "mp-peer")
    in
    Hashtbl.replace ir.inet_rtrs key
      { Ir.name = obj.name;
        local_as;
        ifaddrs = Rz_rpsl.Obj.values obj "ifaddr" @ Rz_rpsl.Obj.values obj "interface";
        bgp_peers;
        rtr_member_of = multi_names split obj "member-of";
        source }
  end

let lower_rtr_set ~split ir (obj : Rz_rpsl.Obj.t) source =
  let key = Rz_util.Strings.uppercase obj.name in
  if not (Hashtbl.mem ir.Ir.rtr_sets key) then
    Hashtbl.replace ir.rtr_sets key
      { Ir.name = obj.name;
        members = multi_names split obj "members" @ multi_names split obj "mp-members";
        mbrs_by_ref = multi_names split obj "mbrs-by-ref";
        source }

let add_objects ?(rule_parser = lower_rule) ?(split = split_names) ir ~source objects =
  Rz_obs.Obs.Span.with_ "lower" (fun () ->
      List.iter
        (fun (obj : Rz_rpsl.Obj.t) ->
          let routing =
            match obj.cls with
            | "aut-num" ->
              lower_aut_num ~parse:rule_parser ~split ir obj source; true
            | "mntner" -> lower_mntner ir obj source; true
            | "inet-rtr" -> lower_inet_rtr ~split ir obj source; true
            | "rtr-set" -> lower_rtr_set ~split ir obj source; true
            | "as-set" -> lower_as_set ~split ir obj source; true
            | "route-set" -> lower_route_set ~split ir obj source; true
            | "peering-set" -> lower_peering_set ir obj source; true
            | "filter-set" -> lower_filter_set ir obj source; true
            | "route" | "route6" -> lower_route ~split ir obj source; true
            | _ -> false
          in
          if routing then Rz_obs.Obs.Counter.incr c_objects_lowered)
        objects)

let add_reader_errors ir ~source errors =
  List.iter
    (fun (e : Rz_rpsl.Reader.error) ->
      Rz_obs.Obs.Counter.incr c_errors;
      ir.Ir.errors <-
        { Ir.kind = Syntax_error e.reason; cls = "dump"; obj_name = e.text; source }
        :: ir.Ir.errors)
    errors

let add_dump ir ~source text =
  let parsed =
    Rz_obs.Obs.Span.with_ "parse" (fun () -> Rz_rpsl.Reader.parse_string text)
  in
  add_reader_errors ir ~source parsed.errors;
  add_objects ir ~source parsed.objects;
  parsed.errors
