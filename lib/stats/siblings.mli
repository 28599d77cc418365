(** Sibling-AS detection — the paper's future-work pointer "identification
    of sibling ASes" — using the classic maintainer heuristic (as in
    as2org-style pipelines): aut-nums administered by the same [mntner]
    likely belong to one organization. *)

type cluster = {
  maintainers : string list;  (** the shared maintainer handles *)
  asns : Rz_net.Asn.t list;   (** sorted member ASNs, at least two *)
}

val clusters : Rz_irr.Db.t -> cluster list
(** Connected components of the AS–maintainer bipartite graph with at
    least two ASes, sorted by descending size. ASes with no [mnt-by] are
    ignored. *)
