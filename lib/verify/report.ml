type item =
  | Match_remote_as_num of Rz_net.Asn.t
  | Match_remote_as_set of string
  | Match_filter_as_num of Rz_net.Asn.t * Rz_net.Range_op.t
  | Match_filter_as_set of string
  | Match_filter
  | Unrec of Status.unrec_reason
  | Skip of Status.skip_reason
  | Spec of Status.special

type hop = {
  direction : [ `Import | `Export ];
  from_as : Rz_net.Asn.t;
  to_as : Rz_net.Asn.t;
  status : Status.t;
  items : item list;
  attrs : Rz_policy.Action_eval.attrs option;
  peering_only : bool;
}

type route_report = {
  route : Rz_bgp.Route.t;
  hops : hop list;
}

let item_to_string = function
  | Match_remote_as_num asn -> Printf.sprintf "MatchRemoteAsNum(%d)" asn
  | Match_remote_as_set name -> Printf.sprintf "MatchRemoteAsSet(%S)" name
  | Match_filter_as_num (asn, op) ->
    Printf.sprintf "MatchFilterAsNum(%d%s)" asn (Rz_net.Range_op.to_string op)
  | Match_filter_as_set name -> Printf.sprintf "MatchFilterAsSet(%S)" name
  | Match_filter -> "MatchFilter"
  | Unrec r -> Status.unrec_to_string r
  | Skip r -> Status.skip_to_string r
  | Spec s -> Status.special_to_string s

let verb_of hop =
  let dir = match hop.direction with `Import -> "Import" | `Export -> "Export" in
  match hop.status with
  | Status.Verified -> "Ok" ^ dir
  | Status.Skipped _ -> "Skip" ^ dir
  | Status.Unrecorded _ -> "Unrec" ^ dir
  | Status.Relaxed _ | Status.Safelisted _ -> "Meh" ^ dir
  | Status.Unverified -> "Bad" ^ dir

let hop_to_string hop =
  let items =
    match hop.items with
    | [] -> ""
    | items ->
      Printf.sprintf ", items: [%s]" (String.concat ", " (List.map item_to_string items))
  in
  let attrs =
    match hop.attrs with
    | None -> ""
    | Some a ->
      let parts =
        List.filter_map Fun.id
          [ Option.map (Printf.sprintf "LocalPref=%d") a.Rz_policy.Action_eval.local_pref;
            Option.map (Printf.sprintf "MED=%d") a.med;
            (match a.communities with
             | [] -> None
             | cs ->
               Some
                 (Printf.sprintf "communities={%s}"
                    (String.concat ","
                       (List.map Rz_policy.Action_eval.community_to_string cs)))) ]
      in
      (match parts with [] -> "" | parts -> ", attrs: " ^ String.concat " " parts)
  in
  Printf.sprintf "%s { from: %d, to: %d%s%s }" (verb_of hop) hop.from_as hop.to_as items attrs
