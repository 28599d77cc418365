(** Valley-free (Gao-Rexford) BGP route propagation over a synthetic
    topology — the substrate standing in for the real Internet's routing
    that produced the paper's 779M collector routes.

    Export policy: an AS announces its own and customer-learned routes to
    every neighbor, and peer-/provider-learned routes only to customers.
    Selection: prefer customer over peer over provider routes, then
    shorter AS-paths, then the lower next-hop ASN (deterministic). *)

type route_class = Own | From_customer | From_peer | From_provider

type best = {
  cls : route_class;
  length : int;        (** number of inter-AS hops to the destination *)
  path : Rz_net.Asn.t list;  (** this AS first, destination (origin) last *)
}

val best_routes : Rz_topology.Gen.t -> dest:Rz_net.Asn.t -> (Rz_net.Asn.t, best) Hashtbl.t
(** Best route of every AS that can reach [dest]; [dest] maps to
    [{cls = Own; length = 0; path = [dest]}]. *)

val collector_dumps :
  Rz_topology.Gen.t ->
  n_collectors:int ->
  peers:Rz_net.Asn.t list ->
  Rz_bgp.Table_dump.t list
(** Full RIB dumps: for each collector peer and each (destination,
    prefix), one route whose AS-path starts at the peer. This mirrors the
    paper's RIPE RIS / RouteViews table dumps. A route's origin is
    prepended 1-2 extra times with probability 0.05 — the inbound
    traffic-engineering noise the paper strips before verification.
    The peers are split round-robin over [n_collectors] dumps named
    [synth-rrc00], [synth-rrc01], ... — the multi-collector vantage mix of
    the paper's 60 RIPE RIS / RouteViews collectors. *)

val default_collector_peers : Rz_topology.Gen.t -> n:int -> Rz_net.Asn.t list
(** Realistic peer mix: all Tier-1s plus the [n] best-connected mids —
    collectors predominantly peer with large networks. *)

val iter_collector_dumps :
  Rz_topology.Gen.t ->
  n_collectors:int ->
  peers:Rz_net.Asn.t list ->
  f:(collector:string -> ((Rz_bgp.Route.t -> unit) -> unit) -> unit) ->
  unit
(** Streamed [collector_dumps]: for each collector (same round-robin
    peer split, same [synth-rrc..] names) call [f ~collector run];
    [run emit] then generates that collector's routes into [emit]. Lets
    the caller write each dump straight to disk with one route in memory
    at a time. *)
