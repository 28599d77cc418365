(** A parsed RPSL object: its class (the key of the first attribute), its
    name (that attribute's value), and the remaining attributes in order. *)

type t = {
  cls : string;      (** object class, lowercase, e.g. ["aut-num"] *)
  name : string;     (** primary key, e.g. ["AS8283"] or ["AS-FOO"] *)
  attrs : Attr.t list;  (** all attributes including the class attribute *)
  line : int;        (** 1-based line of the first attribute in the dump *)
}

val values : t -> string -> string list
(** All values of a (multi-valued) attribute, in order of appearance. *)

val value : t -> string -> string option
(** First value of the attribute, if present. *)

val pp : Format.formatter -> t -> unit
(** Re-render as RPSL text. *)
