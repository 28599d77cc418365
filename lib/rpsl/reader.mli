(** Reader for IRR dump files: splits the dump into paragraph-separated
    objects, folds continuation lines (leading whitespace or ['+']), strips
    ['#'] end-of-line comments and ['%'] server remark lines, and records
    malformed lines as errors without aborting the surrounding object.

    The reader is total on hostile input: no entry point raises. Truncated
    text, NUL bytes, CRLF endings, over-long lines, and error-per-line
    bombs all degrade to recorded {!error} values under the
    {!max_line_bytes} and {!max_errors} bounds, with drops counted on the
    [reader.lines_dropped] metric. *)

type error = { line : int; text : string; reason : string }

type result_t = {
  objects : Obj.t list;
  errors : error list;
}

val max_line_bytes : int
(** [65_536]: a longer line is dropped, with one error record, which
    bounds per-line memory against unterminated-line bombs. Far above any
    line of a real registry dump. *)

val max_errors : int
(** [100_000]: error records kept at most; further errors are counted
    into one synthetic summary record and the [reader.lines_dropped]
    counter. *)

val scan_string : string -> result_t
(** Parse a whole dump held in memory in a single pass, without per-line
    string or per-attribute buffer allocations. This is the reader of
    every product path ([Rz_ingest.Ingest.ingest] and what builds on it).
    Never raises. *)

val parse_string : string -> result_t
(** The line-based reference reader: output identical to {!scan_string}
    (objects, errors, counters), written for clarity rather than speed.
    The tests hold the two equal; no product path calls it. *)
