module Rel_db = Rz_asrel.Rel_db
module Gen = Rz_topology.Gen

type route_class = Own | From_customer | From_peer | From_provider

type best = {
  cls : route_class;
  length : int;
  path : Rz_net.Asn.t list;
}

(* Per-destination three-phase computation.

   Phase 1 (uphill): customer-learned routes climb provider edges — a BFS
   from the destination over customer->provider edges yields, per AS, the
   shortest strictly-downhill path to the destination ("customer route").

   Phase 2 (lateral): an AS with a customer route announces it to peers.

   Phase 3 (downhill): every AS announces its best route to customers;
   customers inherit in provider->customer topological order.

   Selection prefers customer > peer > provider, then length, then the
   smaller next-hop path (resolved by deterministic comparison).

   The whole computation runs on a reusable workspace of int-indexed
   arrays — the same shape per destination — so building a full set of
   collector tables is O(destinations x edges) with no rehashing. *)

type workspace = {
  topo : Gen.t;
  index_of : (Rz_net.Asn.t, int) Hashtbl.t;
  providers : int array array;
  customers : int array array;
  peers : int array array;
  topo_order : int array;           (* providers before customers *)
  (* per-destination scratch (reset between runs): *)
  cust_next : int array;            (* next hop of the customer route; -1 = none; self = dest *)
  cust_len : int array;
  peer_next : int array;
  peer_len : int array;
  best_cls : int array;             (* 0 none, 1 own, 2 customer, 3 peer, 4 provider *)
  best_next : int array;
  best_len : int array;
  queue : int Queue.t;
}

let workspace (topo : Gen.t) =
  let n = Array.length topo.ases in
  let index_of = Hashtbl.create (2 * n) in
  Array.iteri (fun i asn -> Hashtbl.replace index_of asn i) topo.ases;
  let idx asn = Hashtbl.find index_of asn in
  let neighbors f =
    Array.map (fun asn -> Array.of_list (List.map idx (f topo.rels asn))) topo.ases
  in
  let providers = neighbors Rel_db.providers in
  let customers = neighbors Rel_db.customers in
  let peers = neighbors Rel_db.peers in
  (* Kahn's algorithm over provider->customer edges *)
  let indegree = Array.map Array.length providers in
  let order = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i order) indegree;
  let topo_order = Array.make n (-1) in
  let filled = ref 0 in
  while not (Queue.is_empty order) do
    let x = Queue.pop order in
    topo_order.(!filled) <- x;
    incr filled;
    Array.iter
      (fun c ->
        indegree.(c) <- indegree.(c) - 1;
        if indegree.(c) = 0 then Queue.add c order)
      customers.(x)
  done;
  { topo;
    index_of;
    providers;
    customers;
    peers;
    topo_order;
    cust_next = Array.make n (-1);
    cust_len = Array.make n max_int;
    peer_next = Array.make n (-1);
    peer_len = Array.make n max_int;
    best_cls = Array.make n 0;
    best_next = Array.make n (-1);
    best_len = Array.make n max_int;
    queue = Queue.create () }

(* Fill the workspace for one destination index. *)
let compute ws dest_i =
  let n = Array.length ws.topo.ases in
  Array.fill ws.cust_next 0 n (-1);
  Array.fill ws.cust_len 0 n max_int;
  Array.fill ws.peer_next 0 n (-1);
  Array.fill ws.peer_len 0 n max_int;
  Array.fill ws.best_cls 0 n 0;
  Array.fill ws.best_next 0 n (-1);
  Array.fill ws.best_len 0 n max_int;
  (* Phase 1: BFS up provider edges (unit weights -> queue order = BFS). *)
  ws.cust_next.(dest_i) <- dest_i;
  ws.cust_len.(dest_i) <- 0;
  Queue.clear ws.queue;
  Queue.add dest_i ws.queue;
  while not (Queue.is_empty ws.queue) do
    let x = Queue.pop ws.queue in
    Array.iter
      (fun prov ->
        if ws.cust_next.(prov) = -1 then begin
          ws.cust_next.(prov) <- x;
          ws.cust_len.(prov) <- ws.cust_len.(x) + 1;
          Queue.add prov ws.queue
        end)
      ws.providers.(x)
  done;
  (* Phase 2: single lateral step over peer edges. *)
  for x = 0 to n - 1 do
    if ws.cust_next.(x) <> -1 then
      Array.iter
        (fun peer ->
          let candidate = ws.cust_len.(x) + 1 in
          if
            candidate < ws.peer_len.(peer)
            || (candidate = ws.peer_len.(peer) && x < ws.peer_next.(peer))
          then begin
            ws.peer_len.(peer) <- candidate;
            ws.peer_next.(peer) <- x
          end)
        ws.peers.(x)
  done;
  (* Phase 3: downhill in topological order. *)
  Array.iter
    (fun x ->
      if x >= 0 then begin
        if ws.cust_next.(x) <> -1 then begin
          ws.best_cls.(x) <- (if x = dest_i then 1 else 2);
          ws.best_next.(x) <- ws.cust_next.(x);
          ws.best_len.(x) <- ws.cust_len.(x)
        end
        else if ws.peer_next.(x) <> -1 then begin
          ws.best_cls.(x) <- 3;
          ws.best_next.(x) <- ws.peer_next.(x);
          ws.best_len.(x) <- ws.peer_len.(x)
        end
        else
          Array.iter
            (fun prov ->
              if ws.best_cls.(prov) <> 0 then begin
                let candidate = ws.best_len.(prov) + 1 in
                if
                  candidate < ws.best_len.(x)
                  || (candidate = ws.best_len.(x) && prov < ws.best_next.(x))
                then begin
                  ws.best_cls.(x) <- 4;
                  ws.best_next.(x) <- prov;
                  ws.best_len.(x) <- candidate
                end
              end)
            ws.providers.(x)
      end)
    ws.topo_order

(* Reconstruct the path of the AS at index [i] after [compute]. Provider
   routes chain through the providers' best routes; peer routes continue
   on the peer's customer route; customer routes follow customer-route
   next hops. *)
let reconstruct ws dest_i i =
  let asn j = ws.topo.ases.(j) in
  let rec follow_customer j acc =
    if j = dest_i then List.rev (asn j :: acc)
    else follow_customer ws.cust_next.(j) (asn j :: acc)
  in
  let rec follow_best j acc =
    if j = dest_i then List.rev (asn j :: acc)
    else
      match ws.best_cls.(j) with
      | 1 | 2 -> List.rev_append acc (follow_customer j [])
      | 3 ->
        let via = ws.peer_next.(j) in
        List.rev_append (asn j :: acc) (follow_customer via [])
      | 4 -> follow_best ws.best_next.(j) (asn j :: acc)
      | _ -> invalid_arg "reconstruct: unreachable AS"
  in
  follow_best i []

let class_of = function
  | 1 -> Own
  | 2 -> From_customer
  | 3 -> From_peer
  | 4 -> From_provider
  | _ -> invalid_arg "class_of"

let best_routes (topo : Gen.t) ~dest =
  let ws = workspace topo in
  let dest_i = Hashtbl.find ws.index_of dest in
  compute ws dest_i;
  let table = Hashtbl.create 256 in
  Array.iteri
    (fun i asn ->
      if ws.best_cls.(i) <> 0 then
        Hashtbl.replace table asn
          { cls = class_of ws.best_cls.(i);
            length = ws.best_len.(i);
            path = reconstruct ws dest_i i })
    topo.ases;
  table

let c_routes = Rz_obs.Obs.Counter.make "routegen.routes_total"

(* Streamed emission: every route of one collector's RIB, in generation
   order, pushed to [f] as it is produced — nothing retained. At paper
   scale (hundreds of millions of collector routes) materializing the
   RIB as a list is the peak-RSS ceiling; [collector_dumps] below is a
   thin collect-to-list wrapper over this, so the list and streamed
   paths share one generator (same RNG draws, same order, same dumps).
   [prepend_prob] is the chance a route's origin is prepended 1-2 extra
   times. *)
let prepend_prob = 0.05

let iter_collector_routes (topo : Gen.t) ~peers f =
  Rz_obs.Obs.Span.with_ "routegen" @@ fun () ->
  let rng = Rz_util.Splitmix.create (topo.params.seed lxor 0x5eed) in
  let ws = workspace topo in
  let peer_is = List.map (fun asn -> Hashtbl.find ws.index_of asn) peers in
  let n = ref 0 in
  Array.iteri
    (fun dest_i dest ->
      let prefixes = Gen.prefixes_of topo dest in
      if prefixes <> [] then begin
        compute ws dest_i;
        List.iter
          (fun peer_i ->
            if ws.best_cls.(peer_i) <> 0 then begin
              let path = reconstruct ws dest_i peer_i in
              List.iter
                (fun prefix ->
                  (* inbound traffic engineering: some origins prepend
                     themselves; verification strips this *)
                  let path =
                    if Rz_util.Splitmix.chance rng prepend_prob then begin
                      let extra = 1 + Rz_util.Splitmix.int rng 2 in
                      path @ List.init extra (fun _ -> dest)
                    end
                    else path
                  in
                  incr n;
                  f (Rz_bgp.Route.make prefix path))
                prefixes
            end)
          peer_is
      end)
    topo.ases;
  Rz_obs.Obs.Counter.add c_routes !n

(* Round-robin split of the peers over [synth-rrc00..], identical to
   [collector_dumps]'s bucketing. [f ~collector run] is called once per
   collector; [run emit] generates that collector's routes into [emit]. *)
let iter_collector_dumps (topo : Gen.t) ~n_collectors ~peers ~f =
  let n = max 1 n_collectors in
  let buckets = Array.make n [] in
  List.iteri (fun i peer -> buckets.(i mod n) <- peer :: buckets.(i mod n)) peers;
  Array.iteri
    (fun i bucket ->
      f
        ~collector:(Printf.sprintf "synth-rrc%02d" i)
        (fun emit ->
          iter_collector_routes topo ~peers:(List.rev bucket) emit))
    buckets

let collector_dumps (topo : Gen.t) ~n_collectors ~peers =
  let dumps = ref [] in
  iter_collector_dumps topo ~n_collectors ~peers
    ~f:(fun ~collector run ->
      let routes = ref [] in
      run (fun r -> routes := r :: !routes);
      dumps :=
        { Rz_bgp.Table_dump.collector; routes = List.rev !routes } :: !dumps);
  List.rev !dumps

let default_collector_peers (topo : Gen.t) ~n =
  let tier1s =
    Array.to_list topo.ases
    |> List.filter (fun asn -> Gen.tier topo asn = Gen.Tier1)
  in
  let mids =
    Array.to_list topo.ases
    |> List.filter (fun asn -> Gen.tier topo asn = Gen.Mid)
    |> List.sort (fun a b ->
           compare
             (List.length (Rel_db.neighbors topo.rels b))
             (List.length (Rel_db.neighbors topo.rels a)))
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  tier1s @ take n mids
