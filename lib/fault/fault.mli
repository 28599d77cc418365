(** Deterministic fault injection for IRR dumps.

    The hostile-input counterpart of [Rz_synthirr.Generate]: given a clean
    synthetic dump and a splitmix-seeded {!plan}, [corrupt_dump] produces a
    corrupted dump exercising every recovery path in the pipeline —
    truncation mid-object, byte splices, CRLF/NUL/oversized lines,
    duplicated and interleaved objects, cyclic and over-deep as-set bombs,
    and pathological AS-path regexes. Equal plans yield byte-identical
    corruption, so every chaos failure is replayable from [(seed, rate)].

    Faults never make the pipeline {e wrong}, only {e degraded}: parsers
    record errors, flatteners truncate, matchers abstain. The harness in
    [bin/rpslyzer_cli.ml] ([faultinject]) and the [accounting] test
    suite's "chaos sweep table" and "chaos sweep contract" cases assert
    exactly that. Applications are counted on [fault.injected]. *)

type kind =
  | Truncate_mid_object  (** cut the object's text at a random byte *)
  | Byte_splice          (** overwrite one random byte with random garbage *)
  | Crlf_line            (** give every line of the object a CR ending *)
  | Nul_line             (** insert a line of NUL-laced binary garbage *)
  | Oversized_line
      (** insert a line longer than [Rz_rpsl.Reader.default_limits.max_line_bytes] *)
  | Duplicate_object     (** emit the object twice *)
  | Interleave_objects   (** riffle the object's lines with the next object's *)
  | As_set_cycle_bomb    (** append a 3-cycle of as-sets referencing each other *)
  | As_set_deep_bomb
      (** append a member chain deeper than [Rz_irr.Db.max_flatten_depth] *)
  | Pathological_regex
      (** append an aut-num whose import filter is a repetition bomb past
          [Rz_aspath.Regex_nfa.default_max_states] *)

val all_kinds : kind list
(** Every kind, in declaration order. *)

val kind_name : kind -> string
(** Stable kebab-case name, e.g. ["as-set-deep-bomb"]. *)

val kind_of_name : string -> kind option

type plan = {
  seed : int;    (** splitmix seed; equal plans corrupt identically *)
  rate : float;  (** per-object corruption probability in [0, 1] *)
  kinds : kind list;  (** kinds to draw from, uniformly *)
}

val plan : ?kinds:kind list -> seed:int -> rate:float -> unit -> plan
(** Build a plan; [kinds] defaults to {!all_kinds}. Raises
    [Invalid_argument] on a rate outside [0, 1] or an empty kind list. *)

type report = {
  objects_seen : int;       (** paragraphs scanned across all dumps *)
  faults : (kind * int) list;  (** applications per kind, declaration order *)
}

val total_faults : report -> int

val corrupt_dump : plan -> string -> string * report
(** Corrupt one dump. At [rate = 0.] the text is returned byte-identical
    (and no counter moves). *)

val corrupt_dumps : plan -> (string * string) list -> (string * string) list * report
(** Corrupt a [(source, text)] dump list in order under one RNG stream;
    the report aggregates across dumps. *)

val report_lines : report -> string list
(** Human-readable per-kind summary for CLI output. *)
