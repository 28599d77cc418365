(** Synthetic routing anomalies — the incident classes the paper's
    security discussion targets (route leaks, prefix hijacks, forged
    origins): "RPSL rules could inform route filters during upstream
    propagation to curtail route leaks and prefix hijacks" (§5.1.2).

    Each generator produces routes as a collector would observe them,
    alongside ground truth, so detection can be compared across RPSL
    verification, ROV, and ASPA. *)

type kind =
  | Prefix_hijack   (** the attacker originates the victim's prefix itself *)
  | Forged_origin   (** the attacker appends the victim's ASN as a fake origin *)
  | Route_leak      (** the attacker re-exports a peer-learned route to its provider *)

type event = {
  kind : kind;
  attacker : Rz_net.Asn.t;
  victim : Rz_net.Asn.t;       (** origin whose prefix/path is abused *)
  prefix : Rz_net.Prefix.t;
  route : Rz_bgp.Route.t;      (** as observed at a collector peer *)
}

val inject :
  Rz_topology.Gen.t ->
  observer:Rz_net.Asn.t ->
  n:int ->
  kind ->
  event list
(** Generate up to [n] anomalies of one kind, observed from collector peer
    [observer]. Attackers and victims are sampled from the topology;
    events whose propagation would not reach the observer are skipped, so
    fewer than [n] events may be returned. *)
