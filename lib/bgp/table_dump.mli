(** Collector table dumps: the line-oriented text equivalent of the MRT
    RIB dumps the paper downloads from RIPE RIS and RouteViews. One line
    per route, [#]-comments and blank lines ignored. *)

type t = {
  collector : string;         (** collector name, e.g. ["rrc00"] *)
  routes : Route.t list;
}

val to_string : t -> string

val write : out_channel -> collector:string -> ((Route.t -> unit) -> unit) -> unit
(** [write oc ~collector run] streams the text {!to_string} renders:
    [run emit] emits the routes in order, one in memory at a time. *)

val of_string : collector:string -> string -> (t, string) result
(** Fails on the first malformed line. *)

val load : collector:string -> string -> (t, string) result
