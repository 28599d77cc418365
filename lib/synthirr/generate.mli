(** Synthetic IRR generator: renders a topology's ground truth into RPSL
    text spread over the paper's 13 IRRs, through the lens of per-AS
    "personas" that reproduce the usage styles and misuses the paper
    measures. The output is consumed by the ordinary parsing pipeline, so
    every downstream result flows through real RPSL text. *)

type persona =
  | No_aut_num       (** AS absent from every IRR *)
  | No_rules         (** aut-num registered, no import/export *)
  | Regular          (** per-neighbor rules in the common styles *)
  | Only_provider    (** rules only toward providers *)
  | Any_any          (** [from AS-ANY accept ANY] (AS6939 style) *)
  | Complex          (** compound policies: regex, refine, communities *)

type profile = {
  asn : Rz_net.Asn.t;
  persona : persona;
  export_self : bool;      (** transit AS announcing only itself uphill *)
  import_customer : bool;  (** [from C accept C] with transit customer C *)
  uses_mp : bool;          (** writes mp- attributes with [afi any] *)
  has_route_set : bool;
  has_self_set : bool;     (** stub publishing a singleton self as-set *)
  home_irr : string;
  dropped_neighbors : Rz_net.Asn.t list;
      (** neighbors this (rule-writing) AS has no rules for *)
  mnt : string;
      (** the maintainer handle on this AS's objects; a few organizations
          run several ASNs under one handle (the sibling signal) *)
}

type world = {
  topo : Rz_topology.Gen.t;
  config : Config.t;
  profiles : (Rz_net.Asn.t, profile) Hashtbl.t;
  dumps : (string * string) list;
      (** (IRR name, RPSL text) in the paper's priority order *)
}

val generate : ?config:Config.t -> Rz_topology.Gen.t -> world

val cone_set_name : Rz_net.Asn.t -> string
(** The customer-cone as-set name an AS publishes, e.g. ["AS1000:AS-CUST"]. *)
