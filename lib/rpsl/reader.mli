(** Reader for IRR dump files: splits the dump into paragraph-separated
    objects, folds continuation lines (leading whitespace or ['+']), strips
    ['#'] end-of-line comments and ['%'] server remark lines, and records
    malformed lines as errors without aborting the surrounding object.

    The reader is total on hostile input: no entry point raises. Truncated
    files, NUL bytes, CRLF endings, over-long lines, and error-per-line
    bombs all degrade to recorded {!error} values under the {!limits}
    bounds, with drops counted on the [reader.lines_dropped] metric. *)

type error = { line : int; text : string; reason : string }

type result_t = {
  objects : Obj.t list;
  errors : error list;
}

type limits = {
  max_line_bytes : int;
      (** Lines longer than this are dropped (one error record each) —
          bounds per-line memory against unterminated-line bombs. *)
  max_errors : int;
      (** Error records accumulated at most; further errors are counted
          into one synthetic summary record and the
          [reader.lines_dropped] counter. *)
}

val default_limits : limits
(** [{ max_line_bytes = 65_536; max_errors = 100_000 }] — far above
    anything in real registry dumps, far below a memory-exhaustion bomb. *)

val parse_string : ?limits:limits -> string -> result_t
(** Parse a whole dump held in memory. Never raises. *)

val scan_string : ?limits:limits -> string -> result_t
(** Single-pass fast scanner over a whole dump held in memory. Produces
    output identical to {!parse_string} (objects, errors, counters) while
    avoiding per-line string and per-attribute buffer allocations — the
    parse step of [Rz_ingest.Ingest.ingest]. Never raises under
    {!default_limits} (or any limits with [max_line_bytes >= 64]). *)

val parse_file : ?limits:limits -> string -> result_t
(** Parse a dump file from disk. Never raises: an unopenable file yields
    one error record; a failure mid-file (truncation, I/O error) returns
    every object and error accumulated up to that point plus a synthetic
    trailing ["read aborted"] error. *)
