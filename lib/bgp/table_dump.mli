(** Collector table dumps: the line-oriented text equivalent of the MRT
    RIB dumps the paper downloads from RIPE RIS and RouteViews. One line
    per route, [#]-comments and blank lines ignored. *)

type t = {
  collector : string;         (** collector name, e.g. ["rrc00"] *)
  routes : Route.t list;
}

val to_string : t -> string
val of_string : collector:string -> string -> (t, string) result
(** Fails on the first malformed line. *)

val save : t -> string -> unit
val load : collector:string -> string -> (t, string) result
