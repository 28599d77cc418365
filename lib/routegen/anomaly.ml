module Gen = Rz_topology.Gen
module Rel_db = Rz_asrel.Rel_db

type kind =
  | Prefix_hijack
  | Forged_origin
  | Route_leak

type event = {
  kind : kind;
  attacker : Rz_net.Asn.t;
  victim : Rz_net.Asn.t;
  prefix : Rz_net.Prefix.t;
  route : Rz_bgp.Route.t;
}

(* The observer's path towards a destination AS, wire order. *)
let observer_path topo ~observer ~dest =
  let table = Propagate.best_routes topo ~dest in
  Option.map (fun (b : Propagate.best) -> b.path) (Hashtbl.find_opt table observer)

let sample_pair rng (topo : Gen.t) =
  let n = Array.length topo.ases in
  let attacker = topo.ases.(Rz_util.Splitmix.int rng n) in
  let victim = topo.ases.(Rz_util.Splitmix.int rng n) in
  (attacker, victim)

let victim_prefix rng topo victim =
  match Gen.prefixes_of topo victim with
  | [] -> None
  | prefixes -> Some (List.nth prefixes (Rz_util.Splitmix.int rng (List.length prefixes)))

let inject ?(seed = 1234) (topo : Gen.t) ~observer ~n kind =
  let rng = Rz_util.Splitmix.create seed in
  let events = ref [] in
  let attempts = ref 0 in
  while List.length !events < n && !attempts < n * 20 do
    incr attempts;
    let attacker, victim = sample_pair rng topo in
    if attacker <> victim then begin
      let event =
        match kind with
        | Prefix_hijack ->
          (* the attacker originates the victim's prefix; the route
             propagates exactly like the attacker's own announcements *)
          Option.bind (victim_prefix rng topo victim) (fun prefix ->
              Option.map
                (fun path ->
                  { kind; attacker; victim; prefix; route = Rz_bgp.Route.make prefix path })
                (observer_path topo ~observer ~dest:attacker))
        | Forged_origin ->
          (* as above, but the attacker hides behind a forged origin *)
          Option.bind (victim_prefix rng topo victim) (fun prefix ->
              Option.map
                (fun path ->
                  { kind; attacker; victim; prefix;
                    route = Rz_bgp.Route.make prefix (path @ [ victim ]) })
                (observer_path topo ~observer ~dest:attacker))
        | Route_leak ->
          (* the attacker takes a route learned from a peer and re-exports
             it to a provider; the provider treats it as a customer route
             and it climbs from there *)
          (match (Rel_db.peers topo.rels attacker, Rel_db.providers topo.rels attacker) with
           | peer :: _, provider :: _ when peer <> victim ->
             (* the leaked route: the peer's best path to the victim *)
             let table = Propagate.best_routes topo ~dest:victim in
             Option.bind (Hashtbl.find_opt table peer)
               (fun (peer_best : Propagate.best) ->
                 Option.bind (victim_prefix rng topo victim) (fun prefix ->
                     (* path: observer .. provider, then attacker, then the
                        peer's path to the victim *)
                     Option.map
                       (fun head ->
                         let path = head @ (attacker :: peer_best.path) in
                         { kind; attacker; victim; prefix;
                           route = Rz_bgp.Route.make prefix path })
                       (observer_path topo ~observer ~dest:provider)))
           | _ -> None)
      in
      match event with
      | Some e ->
        (* drop degenerate paths (observer = attacker etc. create repeats) *)
        let path = Rz_bgp.Route.dedup_path e.route in
        let distinct = List.sort_uniq compare path in
        if List.length path >= 2 && List.length path = List.length distinct then
          events := e :: !events
      | None -> ()
    end
  done;
  List.rev !events
