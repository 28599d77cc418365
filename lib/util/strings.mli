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

val decimal : string -> int option
(** [Some n] when the string is one or more ASCII digits [0-9] whose value
    [n] fits in an [int]; [None] otherwise. Unlike [int_of_string_opt] it
    takes no sign, no [_] separator and no [0x]/[0o]/[0b]/[0u] prefix, so
    a number field of registry or routing data never reads as a
    different number. *)
