type error = { line : int; text : string; reason : string }

(* Observability: volume counters for the reader stage (no-ops unless
   the Rz_obs registry is enabled). [reader.lines_dropped] counts hostile
   lines discarded by the bounds below (over-long lines, and error
   records suppressed past the budget) — the reader's recovery signal. *)
let c_objects = Rz_obs.Obs.Counter.make "rpsl.objects_total"
let c_attrs = Rz_obs.Obs.Counter.make "rpsl.attrs_total"
let c_errors = Rz_obs.Obs.Counter.make "rpsl.errors_total"
let c_lines_dropped = Rz_obs.Obs.Counter.make "reader.lines_dropped"

let count_result objects errors =
  Rz_obs.Obs.Counter.add c_objects (List.length objects);
  Rz_obs.Obs.Counter.add c_attrs
    (List.fold_left (fun acc (o : Obj.t) -> acc + List.length o.attrs) 0 objects);
  Rz_obs.Obs.Counter.add c_errors (List.length errors)

type result_t = {
  objects : Obj.t list;
  errors : error list;
}

(* Hostile-input bounds. IRR dumps are untrusted text (the paper's
   Table 1 finds syntax errors in every registry): a single unbounded
   line or an error-per-line bomb must not balloon memory. Both caps
   degrade to recorded errors, never to an exception. *)
type limits = {
  max_line_bytes : int;  (** longer lines are dropped, with one error record *)
  max_errors : int;      (** further errors are counted but not accumulated *)
}

let default_limits = { max_line_bytes = 65_536; max_errors = 100_000 }

(* A '#' begins a comment anywhere on a line. Values never contain '#'
   meaningfully in the routing-related attributes we interpret. *)
let strip_comment line = Rz_util.Strings.chop_comment '#' line

let is_continuation line =
  String.length line > 0 && (line.[0] = ' ' || line.[0] = '\t' || line.[0] = '+')

(* Paragraph accumulator: turns a stream of lines into objects. *)
type state = {
  limits : limits;
  mutable current : (string * Buffer.t) list; (* reversed (key, value) list *)
  mutable start_line : int;
  mutable objects_rev : Obj.t list;
  mutable errors_rev : error list;
  mutable n_errors : int;
  mutable suppressed : int;  (* errors past the budget, counted not stored *)
}

let fresh_state limits =
  { limits; current = []; start_line = 0; objects_rev = []; errors_rev = [];
    n_errors = 0; suppressed = 0 }

let push_error st err =
  if st.n_errors < st.limits.max_errors then begin
    st.errors_rev <- err :: st.errors_rev;
    st.n_errors <- st.n_errors + 1
  end
  else begin
    st.suppressed <- st.suppressed + 1;
    Rz_obs.Obs.Counter.incr c_lines_dropped
  end

let flush_object st =
  match List.rev st.current with
  | [] -> ()
  | (cls_key, cls_buf) :: _ as attrs ->
    let attrs = List.map (fun (k, b) -> Attr.make k (Buffer.contents b)) attrs in
    let obj =
      { Obj.cls = Rz_util.Strings.lowercase cls_key;
        name = Rz_util.Strings.strip (Buffer.contents cls_buf);
        attrs;
        line = st.start_line }
    in
    st.objects_rev <- obj :: st.objects_rev;
    st.current <- []

let valid_key key =
  key <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '*')
       key

let feed_line st lineno raw =
  if String.length raw > st.limits.max_line_bytes then begin
    Rz_obs.Obs.Counter.incr c_lines_dropped;
    push_error st
      { line = lineno;
        text = String.sub raw 0 64;
        reason =
          Printf.sprintf "line exceeds %d bytes (%d); dropped"
            st.limits.max_line_bytes (String.length raw) }
  end
  else begin
    let line = strip_comment raw in
    if Rz_util.Strings.is_blank line then flush_object st
    else if String.length raw > 0 && raw.[0] = '%' then () (* server remark *)
    else if is_continuation line then begin
      (* Continuation of the previous attribute's value. A '+' alone
         continues with an empty line; otherwise append the folded text. *)
      match st.current with
      | [] ->
        push_error st
          { line = lineno; text = raw; reason = "continuation line outside an object" }
      | (_, buf) :: _ ->
        let text =
          if line.[0] = '+' then String.sub line 1 (String.length line - 1) else line
        in
        let text = Rz_util.Strings.strip text in
        if text <> "" then begin
          Buffer.add_char buf '\n';
          Buffer.add_string buf text
        end
    end
    else
      match String.index_opt line ':' with
      | None ->
        push_error st { line = lineno; text = raw; reason = "line is not key: value" }
      | Some i ->
        let key = Rz_util.Strings.strip (String.sub line 0 i) in
        let value = String.sub line (i + 1) (String.length line - i - 1) in
        if not (valid_key key) then
          push_error st
            { line = lineno; text = raw;
              reason = Printf.sprintf "invalid attribute key %S" key }
        else begin
          if st.current = [] then st.start_line <- lineno;
          let buf = Buffer.create 32 in
          Buffer.add_string buf (Rz_util.Strings.strip value);
          st.current <- (key, buf) :: st.current
        end
  end

(* Close the accumulator: flush the trailing object, convert the budget
   overflow into one synthetic summary error, and count the totals. *)
let finish st =
  flush_object st;
  if st.suppressed > 0 then
    st.errors_rev <-
      { line = 0; text = "";
        reason =
          Printf.sprintf "error budget (%d) exhausted; %d further errors suppressed"
            st.limits.max_errors st.suppressed }
      :: st.errors_rev;
  let objects = List.rev st.objects_rev and errors = List.rev st.errors_rev in
  count_result objects errors;
  { objects; errors }

let parse_string ?(limits = default_limits) text =
  let st = fresh_state limits in
  List.iteri (fun i line -> feed_line st (i + 1) line) (String.split_on_char '\n' text);
  finish st

(* Single-pass scanner over a whole in-memory dump: the fast path of
   [parse_string]. It walks the text once with index arithmetic — no
   per-line string, no Buffer per attribute — and materializes only the
   final key/value strings. Output is identical to [parse_string] byte
   for byte (the ingest test suite holds the two equivalent under
   QCheck); keep the two in lockstep when touching either. *)
let scan_string ?(limits = default_limits) text =
  let n = String.length text in
  let objects_rev = ref [] and errors_rev = ref [] in
  let n_errors = ref 0 and suppressed = ref 0 in
  let push_error err =
    if !n_errors < limits.max_errors then begin
      errors_rev := err :: !errors_rev;
      incr n_errors
    end
    else begin
      incr suppressed;
      Rz_obs.Obs.Counter.incr c_lines_dropped
    end
  in
  (* current object: reversed (key, value-pieces-reversed) list *)
  let current = ref [] and start_line = ref 0 in
  (* Attribute keys repeat massively across a dump ("import", "mnt-by",
     ...): intern the lowercased form keyed by the raw trimmed slice so
     each distinct spelling is lowercased once. *)
  let intern : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let intern_key raw =
    match Hashtbl.find_opt intern raw with
    | Some k -> k
    | None ->
      let k = Rz_util.Strings.lowercase raw in
      Hashtbl.replace intern raw k;
      k
  in
  let flush () =
    match !current with
    | [] -> ()
    | rev ->
      let attrs =
        List.rev_map
          (fun (key, pieces) ->
            let value =
              match pieces with
              | [ one ] -> one
              | many -> Rz_util.Strings.strip (String.concat "\n" (List.rev many))
            in
            { Attr.key; value })
          rev
      in
      (match attrs with
       | [] -> ()
       | (first : Attr.t) :: _ ->
         objects_rev :=
           { Obj.cls = first.key; name = first.value; attrs; line = !start_line }
           :: !objects_rev);
      current := []
  in
  let is_sp c = c = ' ' || c = '\t' || c = '\r' || c = '\n' in
  (* trimmed sub-slice bounds of [s, e) *)
  let trim s e =
    let s = ref s and e = ref e in
    while !s < !e && is_sp (String.unsafe_get text !s) do incr s done;
    while !e > !s && is_sp (String.unsafe_get text (!e - 1)) do decr e done;
    (!s, !e)
  in
  let valid_key_slice s e =
    e > s
    && (let ok = ref true in
        for i = s to e - 1 do
          let c = String.unsafe_get text i in
          if
            not
              ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
               || (c >= '0' && c <= '9') || c = '-' || c = '_' || c = '*')
          then ok := false
        done;
        !ok)
  in
  let line lineno s e =
    if e - s > limits.max_line_bytes then begin
      Rz_obs.Obs.Counter.incr c_lines_dropped;
      push_error
        { line = lineno;
          text = String.sub text s (min 64 (e - s));
          reason =
            Printf.sprintf "line exceeds %d bytes (%d); dropped"
              limits.max_line_bytes (e - s) }
    end
    else begin
      (* end-of-line comment: '#' anywhere truncates the line *)
      let eff = ref e in
      (let i = ref s in
       while !i < !eff do
         if String.unsafe_get text !i = '#' then eff := !i else incr i
       done);
      let eff = !eff in
      let blank = ref true in
      (let i = ref s in
       while !blank && !i < eff do
         if not (is_sp (String.unsafe_get text !i)) then blank := false;
         incr i
       done);
      if !blank then flush ()
      else
        (* non-blank implies eff > s, so the raw first char exists *)
        let c0 = String.unsafe_get text s in
        if c0 = '%' then () (* server remark *)
        else if c0 = ' ' || c0 = '\t' || c0 = '+' then begin
          match !current with
          | [] ->
            push_error
              { line = lineno;
                text = String.sub text s (e - s);
                reason = "continuation line outside an object" }
          | (key, pieces) :: rest ->
            let ts = if c0 = '+' then s + 1 else s in
            let ts, te = trim ts eff in
            if te > ts then
              current := (key, String.sub text ts (te - ts) :: pieces) :: rest
        end
        else begin
          let colon = ref (-1) in
          (let i = ref s in
           while !colon < 0 && !i < eff do
             if String.unsafe_get text !i = ':' then colon := !i;
             incr i
           done);
          if !colon < 0 then
            push_error
              { line = lineno;
                text = String.sub text s (e - s);
                reason = "line is not key: value" }
          else begin
            let ks, ke = trim s !colon in
            if not (valid_key_slice ks ke) then
              push_error
                { line = lineno;
                  text = String.sub text s (e - s);
                  reason =
                    Printf.sprintf "invalid attribute key %S"
                      (String.sub text ks (ke - ks)) }
            else begin
              if !current = [] then start_line := lineno;
              let key = intern_key (String.sub text ks (ke - ks)) in
              let vs, ve = trim (!colon + 1) eff in
              current := (key, [ String.sub text vs (ve - vs) ]) :: !current
            end
          end
        end
    end
  in
  let lineno = ref 0 and pos = ref 0 and looping = ref true in
  while !looping do
    incr lineno;
    let stop =
      match String.index_from_opt text !pos '\n' with Some j -> j | None -> n
    in
    line !lineno !pos stop;
    if stop >= n then looping := false else pos := stop + 1
  done;
  flush ();
  if !suppressed > 0 then
    errors_rev :=
      { line = 0; text = "";
        reason =
          Printf.sprintf "error budget (%d) exhausted; %d further errors suppressed"
            limits.max_errors !suppressed }
      :: !errors_rev;
  let objects = List.rev !objects_rev and errors = List.rev !errors_rev in
  count_result objects errors;
  { objects; errors }

let parse_file ?(limits = default_limits) path =
  let st = fresh_state limits in
  (match open_in path with
   | exception Sys_error msg ->
     push_error st { line = 0; text = path; reason = "cannot open: " ^ msg }
   | ic ->
     let lineno = ref 0 in
     (* Any mid-file failure (truncated dump, I/O error, interrupt while
        reading an NFS-mounted registry mirror) keeps everything parsed so
        far and becomes a synthetic trailing error — a 3 GiB dump cut off
        at 99% must not discard 99% of its objects. *)
     (try
        while true do
          incr lineno;
          feed_line st !lineno (input_line ic)
        done
      with
      | End_of_file -> ()
      | e ->
        push_error st
          { line = !lineno; text = path;
            reason = "read aborted: " ^ Printexc.to_string e });
     (try close_in ic with Sys_error _ -> ()));
  finish st
