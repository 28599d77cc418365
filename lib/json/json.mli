(** Minimal JSON representation used to export the intermediate
    representation (IR), mirroring the paper's JSON export for integration
    with external tools. Self-contained (no third-party dependency in the
    sealed build environment). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Serialize. [indent] > 0 pretty-prints with that indent width; default is
    compact output. Strings are escaped per RFC 8259. *)

val of_string : string -> (t, string) result
(** Parse a JSON document. Numbers without ['.'], ['e'] are [Int]. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] otherwise. *)

val to_list : t -> t list
(** Contents of a [List]; raises [Invalid_argument] otherwise. *)

val equal : t -> t -> bool
