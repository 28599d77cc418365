(** Small string helpers shared across the code base. *)

val lowercase : string -> string
(** ASCII lowercase. *)

val uppercase : string -> string
(** ASCII uppercase. *)

val strip : string -> string
(** Trim ASCII whitespace from both ends. *)

val split_on_string : sep:string -> string -> string list
(** Split on a multi-character separator (no regex). [sep] must be
    non-empty. *)

val starts_with_ci : prefix:string -> string -> bool
(** Case-insensitive [String.starts_with]. *)

val equal_ci : string -> string -> bool
(** Case-insensitive equality. *)

val is_blank : string -> bool
(** True when the string only contains whitespace. *)

val split_words : string -> string list
(** Split on runs of whitespace, dropping empties. *)

val chop_comment : char -> string -> string
(** [chop_comment '#' s] drops everything from the first occurrence of the
    comment character. *)
