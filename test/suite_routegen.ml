(* Tests for rz_routegen: Gao-Rexford propagation invariants — valley-free
   paths, reachability, path consistency with the topology. *)
module Gen = Rz_topology.Gen
module Rel_db = Rz_asrel.Rel_db
module Propagate = Rz_routegen.Propagate

let params = { Gen.default_params with n_tier1 = 3; n_mid = 20; n_stub = 60 }
let topo = lazy (Gen.generate params)

(* Valley-free: a path, read from the source towards the destination, may
   climb customer->provider links and cross at most one peer link, after
   which it may only descend provider->customer. *)
let valley_free rels path =
  (* classify each step *)
  let rec steps = function
    | a :: (b :: _ as rest) ->
      let step =
        match Rel_db.relationship rels a b with
        | Rel_db.B_provider_of_a -> `Up
        | Rel_db.A_provider_of_b -> `Down
        | Rel_db.Peers -> `Peer
        | Rel_db.Unknown -> `Bad
      in
      step :: steps rest
    | _ -> []
  in
  let rec check phase = function
    | [] -> true
    | `Bad :: _ -> false
    | `Up :: rest -> phase = `Climbing && check `Climbing rest
    | `Peer :: rest -> phase = `Climbing && check `Descending rest
    | `Down :: rest -> check `Descending rest
  in
  check `Climbing (steps path)

let test_dest_has_own_route () =
  let t = Lazy.force topo in
  let dest = t.ases.(10) in
  let table = Propagate.best_routes t ~dest in
  match Hashtbl.find_opt table dest with
  | Some b ->
    Alcotest.(check int) "zero length" 0 b.Propagate.length;
    Alcotest.(check (list int)) "self path" [ dest ] b.path;
    Alcotest.(check bool) "own class" true (b.cls = Propagate.Own)
  | None -> Alcotest.fail "destination missing its own route"

let test_full_reachability () =
  let t = Lazy.force topo in
  let dest = t.ases.(0) in
  let table = Propagate.best_routes t ~dest in
  Alcotest.(check int) "every AS reaches a tier1 destination" (Gen.n_ases t)
    (Hashtbl.length table)

let test_paths_start_and_end_correctly () =
  let t = Lazy.force topo in
  let dest = t.ases.(5) in
  let table = Propagate.best_routes t ~dest in
  Hashtbl.iter
    (fun asn (b : Propagate.best) ->
      Alcotest.(check int) "starts at self" asn (List.hd b.path);
      Alcotest.(check int) "ends at dest" dest (List.nth b.path (List.length b.path - 1));
      Alcotest.(check int) "length consistent" (List.length b.path - 1) b.length)
    table

let test_paths_follow_real_links () =
  let t = Lazy.force topo in
  let dest = t.ases.(7) in
  let table = Propagate.best_routes t ~dest in
  Hashtbl.iter
    (fun _ (b : Propagate.best) ->
      let rec check = function
        | a :: (b :: _ as rest) ->
          Alcotest.(check bool)
            (Printf.sprintf "link %d-%d exists" a b)
            true
            (Rel_db.relationship t.rels a b <> Rel_db.Unknown);
          check rest
        | _ -> ()
      in
      check b.path)
    table

let test_paths_valley_free () =
  let t = Lazy.force topo in
  (* check several destinations *)
  List.iter
    (fun i ->
      let dest = t.ases.(i) in
      let table = Propagate.best_routes t ~dest in
      Hashtbl.iter
        (fun asn (b : Propagate.best) ->
          Alcotest.(check bool)
            (Printf.sprintf "valley-free %d -> %d" asn dest)
            true
            (valley_free t.rels b.path))
        table)
    [ 0; 4; 25; 50; 80 ]

let test_no_loops_in_paths () =
  let t = Lazy.force topo in
  let dest = t.ases.(30) in
  let table = Propagate.best_routes t ~dest in
  Hashtbl.iter
    (fun _ (b : Propagate.best) ->
      let sorted = List.sort_uniq compare b.path in
      Alcotest.(check int) "no repeated AS" (List.length b.path) (List.length sorted))
    table

let test_customer_route_preferred () =
  (* An AS with a customer route to the destination must use it even if a
     shorter peer/provider path exists; verify class consistency: if the
     first step goes down, class must be From_customer. *)
  let t = Lazy.force topo in
  let dest = t.ases.(60) in
  let table = Propagate.best_routes t ~dest in
  Hashtbl.iter
    (fun asn (b : Propagate.best) ->
      if asn <> dest then begin
        let next = List.nth b.path 1 in
        match Rel_db.relationship t.rels asn next with
        | Rel_db.A_provider_of_b ->
          Alcotest.(check bool) "down step = customer route" true
            (b.cls = Propagate.From_customer)
        | Rel_db.Peers ->
          Alcotest.(check bool) "peer step = peer route" true (b.cls = Propagate.From_peer)
        | Rel_db.B_provider_of_a ->
          Alcotest.(check bool) "up step = provider route" true
            (b.cls = Propagate.From_provider)
        | Rel_db.Unknown -> Alcotest.fail "path uses non-existent link"
      end)
    table

let test_collector_dump () =
  let t = Lazy.force topo in
  let peers = Propagate.default_collector_peers t ~n:3 in
  Alcotest.(check bool) "peers include tier1s" true (List.length peers >= 3);
  let dump = List.hd (Propagate.collector_dumps t ~n_collectors:1 ~peers) in
  Alcotest.(check bool) "has routes" true (List.length dump.routes > 0);
  (* every route's path starts at a collector peer and ends at the AS
     originating the prefix *)
  List.iter
    (fun (r : Rz_bgp.Route.t) ->
      let path = Rz_bgp.Route.dedup_path r in
      Alcotest.(check bool) "starts at a peer" true (List.mem (List.hd path) peers);
      let origin = List.nth path (List.length path - 1) in
      Alcotest.(check bool) "origin announces prefix" true
        (List.exists (Rz_net.Prefix.equal r.prefix) (Gen.prefixes_of t origin)))
    dump.routes

let test_collector_dump_deterministic () =
  let t = Lazy.force topo in
  let peers = Propagate.default_collector_peers t ~n:2 in
  let d1 = List.hd (Propagate.collector_dumps t ~n_collectors:1 ~peers) in
  let d2 = List.hd (Propagate.collector_dumps t ~n_collectors:1 ~peers) in
  Alcotest.(check string) "same dump" (Rz_bgp.Table_dump.to_string d1)
    (Rz_bgp.Table_dump.to_string d2)

let suite =
  [ Alcotest.test_case "dest own route" `Quick test_dest_has_own_route;
    Alcotest.test_case "full reachability" `Quick test_full_reachability;
    Alcotest.test_case "path endpoints" `Quick test_paths_start_and_end_correctly;
    Alcotest.test_case "paths follow real links" `Quick test_paths_follow_real_links;
    Alcotest.test_case "paths valley-free" `Quick test_paths_valley_free;
    Alcotest.test_case "no loops" `Quick test_no_loops_in_paths;
    Alcotest.test_case "class consistency" `Quick test_customer_route_preferred;
    Alcotest.test_case "collector dump" `Quick test_collector_dump;
    Alcotest.test_case "collector dump deterministic" `Quick test_collector_dump_deterministic ]
