(** Post-merge registry contribution: with the paper's priority order,
    which IRR actually "owns" each object after deduplication — the
    flip side of Table 1's raw counts, quantifying how much lower-priority
    registries (RADB and friends) are shadowed by authoritative ones.
    The paper's Section 4 highlights this fragmentation ("registrars
    running their own IRR databases ... can lead to inconsistencies"). *)

type row = {
  irr : string;
  aut_nums : int;        (** objects this IRR contributed post-merge *)
  as_sets : int;
  route_sets : int;
  routes : int;          (** unique (prefix, origin) pairs owned *)
}

type t = {
  rows : row list;              (** in priority order; IRRs with no
                                    contribution included with zeros *)
  shadowed_routes : int;        (** raw route objects dropped by dedup *)
}

val compute : table1:Usage.table1_row list -> Rz_irr.Db.t -> t
(** [table1] is {!Usage.t}'s [table1] for the dumps [db] was built
    from: their raw route objects, less those [db] keeps, are the
    shadowed ones. *)
