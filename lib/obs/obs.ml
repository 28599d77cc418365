module Json = Rz_json.Json

(* ------------------------------------------------------------------ *)
(* Global enable flag                                                  *)
(* ------------------------------------------------------------------ *)

let enabled_flag = Atomic.make false
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let enabled () = Atomic.get enabled_flag

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Registration is rare (module init, first use); guard it with one
   mutex. Hot-path reads/increments never take it. *)
let registry_mutex = Mutex.create ()

let with_lock f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

(* ------------------------------------------------------------------ *)
(* Log-bucket math                                                     *)
(* ------------------------------------------------------------------ *)

let n_buckets = 256

(* The bucket growth factor: ~19% wide buckets, <= 9% quantile error. *)
let gamma = Float.pow 2.0 0.25
let log_gamma = Float.log gamma

(* bucket 0: values < 1.0 (underflow); bucket i >= 1 covers
   [gamma^(i-1), gamma^i); the last bucket also absorbs overflow *)
let bucket_of_value v =
  if not (Float.is_finite v) || v < 1.0 then 0
  else
    let i = 1 + int_of_float (Float.log v /. log_gamma) in
    if i < 1 then 1 else if i >= n_buckets then n_buckets - 1 else i

(* Geometric midpoint of bucket [i]: sqrt(lo * hi) = gamma^(i - 1/2).
   The underflow bucket reports 0.5 (its values lie in [0, 1)). *)
let representative_of i =
  if i = 0 then 0.5 else Float.pow gamma (float_of_int i -. 0.5)

(* Inclusive upper bound of bucket [i] for cumulative (Prometheus-style)
   encodings: bucket 0 is everything below 1.0, bucket i ends at
   gamma^i. The last bucket absorbs overflow, so its bound is +inf. *)
let upper_bound_of i =
  if i = 0 then 1.0
  else if i >= n_buckets - 1 then Float.infinity
  else Float.pow gamma (float_of_int i)

(* Rank-select a quantile out of a plain (already consistent) bucket
   count array. Total and cumulative ranks come from the same array, so
   a caller holding a snapshot can never see a torn (count, buckets)
   pair. *)
let quantile_of_counts counts q =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let rank = min rank total in
    let cum = ref 0 and found = ref 0 in
    (try
       for i = 0 to Array.length counts - 1 do
         cum := !cum + counts.(i);
         if !cum >= rank then begin
           found := i;
           raise Exit
         end
       done
     with Exit -> ());
    representative_of !found
  end

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  type t = { name : string; v : int Atomic.t }

  let table : (string, t) Hashtbl.t = Hashtbl.create 64

  let make name =
    with_lock (fun () ->
        match Hashtbl.find_opt table name with
        | Some c -> c
        | None ->
          let c = { name; v = Atomic.make 0 } in
          Hashtbl.replace table name c;
          c)

  let add c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.v n)
  let incr c = add c 1
  let get c = Atomic.get c.v
  let name c = c.name
end

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)
(* ------------------------------------------------------------------ *)

module Gauge = struct
  type t = int Atomic.t

  let table : (string, t) Hashtbl.t = Hashtbl.create 16

  let make name =
    with_lock (fun () ->
        match Hashtbl.find_opt table name with
        | Some g -> g
        | None ->
          let g = Atomic.make 0 in
          Hashtbl.replace table name g;
          g)

  let set g n = if Atomic.get enabled_flag then Atomic.set g n
  let add g n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add g n)
  let incr g = add g 1
  let decr g = add g (-1)
end

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  type t = int Atomic.t array

  let table : (string, t) Hashtbl.t = Hashtbl.create 16

  let make name =
    with_lock (fun () ->
        match Hashtbl.find_opt table name with
        | Some h -> h
        | None ->
          let h = Array.init n_buckets (fun _ -> Atomic.make 0) in
          Hashtbl.replace table name h;
          h)

  let observe h v =
    if Atomic.get enabled_flag then
      ignore (Atomic.fetch_and_add h.(bucket_of_value v) 1)

  (* One atomic read per bucket into a plain array: every derived figure
     (count, quantiles, cumulative encodings) must come from one such
     copy so concurrent observers can never tear the view. *)
  let counts h = Array.map Atomic.get h

  let count h = Array.fold_left (fun acc b -> acc + Atomic.get b) 0 h

  let quantile h q = quantile_of_counts (counts h) q
end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

module Span = struct
  type stat = { count : int Atomic.t; total_ns : int Atomic.t; max_ns : int Atomic.t }

  let table : (string, stat) Hashtbl.t = Hashtbl.create 32

  let stat_of name =
    (* fast path without the lock: concurrent lookups of an
       already-registered name must not contend *)
    match Hashtbl.find_opt table name with
    | Some s -> s
    | None ->
      with_lock (fun () ->
          match Hashtbl.find_opt table name with
          | Some s -> s
          | None ->
            let s =
              { count = Atomic.make 0; total_ns = Atomic.make 0; max_ns = Atomic.make 0 }
            in
            Hashtbl.replace table name s;
            s)

  let record name elapsed_ns =
    let s = stat_of name in
    ignore (Atomic.fetch_and_add s.count 1);
    ignore (Atomic.fetch_and_add s.total_ns elapsed_ns);
    atomic_max s.max_ns elapsed_ns

  (* Optional per-event sink for trace-event exporters (rz_trace's Chrome
     writer). One Atomic read per span exit when unset; the sink itself
     must be domain-safe — it runs in whichever domain closed the span. *)
  let sink : (string -> start_ns:int -> dur_ns:int -> unit) option Atomic.t =
    Atomic.make None

  let set_sink f = Atomic.set sink f

  let with_ name f =
    if not (Atomic.get enabled_flag) then f ()
    else begin
      let t0 = Monotonic_clock.now () in
      let finish () =
        let elapsed = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) in
        record name (max 0 elapsed);
        match Atomic.get sink with
        | None -> ()
        | Some emit ->
          (try emit name ~start_ns:(Int64.to_int t0) ~dur_ns:(max 0 elapsed)
           with _ -> ())
      in
      match f () with
      | result ->
        finish ();
        result
      | exception e ->
        finish ();
        raise e
    end

  let count name =
    match Hashtbl.find_opt table name with
    | Some s -> Atomic.get s.count
    | None -> 0

  let total_ns name =
    match Hashtbl.find_opt table name with
    | Some s -> Atomic.get s.total_ns
    | None -> 0
end

(* ------------------------------------------------------------------ *)
(* Run metadata                                                        *)
(* ------------------------------------------------------------------ *)

(* Free-form key/value metadata describing the run (subcommand, seed,
   wall-clock start, domain count, ...). Written rarely — mutex-guarded;
   snapshots embed it so metrics files and JSONL stream records are
   self-describing. *)
module Meta = struct
  let table : (string, Json.t) Hashtbl.t = Hashtbl.create 8

  let set key value = with_lock (fun () -> Hashtbl.replace table key value)
end

(* ------------------------------------------------------------------ *)
(* Reset                                                               *)
(* ------------------------------------------------------------------ *)

let reset () =
  with_lock (fun () ->
      Hashtbl.reset Meta.table;
      Hashtbl.iter (fun _ (c : Counter.t) -> Atomic.set c.v 0) Counter.table;
      Hashtbl.iter (fun _ g -> Atomic.set g 0) Gauge.table;
      Hashtbl.iter (fun _ h -> Array.iter (fun b -> Atomic.set b 0) h) Histogram.table;
      Hashtbl.iter
        (fun _ (s : Span.stat) ->
          Atomic.set s.count 0;
          Atomic.set s.total_ns 0;
          Atomic.set s.max_ns 0)
        Span.table)

(* ------------------------------------------------------------------ *)
(* Recovery counters                                                   *)
(* ------------------------------------------------------------------ *)

(* Single source of truth for the graceful-degradation contract: a run
   that kept going but fired any of these exits 2 under the keep-going
   subcommands (faultinject / rpki / stream). The CLI and the docs both
   read this list; suite_obs checks it stays in sync with what the
   instrumented libraries actually register. *)
let recovery_counter_names =
  [ "fault.injected";
    "reader.lines_dropped";
    "flatten.truncated";
    "nfa.capped";
    "rpki.roas_rejected";
    "stream.journal_rejected";
    "serve.queries_rejected";
    "serve.sessions_rejected";
    "serve.sessions_dropped";
    "nrtm.ops_rejected";
    "obs.accesslog_dropped" ]

(* ------------------------------------------------------------------ *)
(* Registry snapshots                                                  *)
(* ------------------------------------------------------------------ *)

module Registry = struct
  type hist_row = {
    count : int;
    p50 : float;
    p90 : float;
    p99 : float;
    h_counts : int array;  (* consistent copy backing every figure above *)
  }

  type snapshot = {
    meta : (string * Json.t) list;
    counters : (string * int) list;
    gauges : (string * int) list;
    histograms : (string * hist_row) list;
    spans : (string * (int * int * int)) list;  (* count, total_ns, max_ns *)
  }

  let sorted_bindings tbl f =
    Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let snapshot () =
    with_lock (fun () ->
        { meta = sorted_bindings Meta.table Fun.id;
          counters = sorted_bindings Counter.table (fun c -> Atomic.get c.Counter.v);
          gauges = sorted_bindings Gauge.table Atomic.get;
          histograms =
            sorted_bindings Histogram.table (fun h ->
                let counts = Histogram.counts h in
                { count = Array.fold_left ( + ) 0 counts;
                  p50 = quantile_of_counts counts 0.5;
                  p90 = quantile_of_counts counts 0.9;
                  p99 = quantile_of_counts counts 0.99;
                  h_counts = counts });
          spans =
            sorted_bindings Span.table (fun (s : Span.stat) ->
                (Atomic.get s.count, Atomic.get s.total_ns, Atomic.get s.max_ns)) })

  let counters s = s.counters
  let gauges s = s.gauges
  let spans s = List.map (fun (n, (c, t, _)) -> (n, (c, t))) s.spans
  let meta s = s.meta

  let to_json s =
    Json.Obj
      [ ("meta", Json.Obj s.meta);
        ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.counters));
        ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.gauges));
        ( "histograms",
          Json.Obj
            (List.map
               (fun (n, (r : hist_row)) ->
                 ( n,
                   Json.Obj
                     [ ("count", Json.Int r.count);
                       ("p50", Json.Float r.p50);
                       ("p90", Json.Float r.p90);
                       ("p99", Json.Float r.p99) ] ))
               s.histograms) );
        ( "spans",
          Json.Obj
            (List.map
               (fun (n, (count, total_ns, max_ns)) ->
                 ( n,
                   Json.Obj
                     [ ("count", Json.Int count);
                       ("total_ns", Json.Int total_ns);
                       ("max_ns", Json.Int max_ns) ] ))
               s.spans) ) ]
end

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

(* Prometheus metric names admit [a-zA-Z0-9_:]; our dotted names map
   dots (and anything else) to underscores. *)
let prom_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let prom_le v = if v = Float.infinity then "+Inf" else prom_float v

let to_prometheus (s : Registry.snapshot) =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') fmt in
  List.iter
    (fun (k, v) -> line "# meta %s %s" (prom_name k) (Json.to_string v))
    s.Registry.meta;
  List.iter
    (fun (n, v) ->
      let n = prom_name n in
      line "# TYPE %s counter" n;
      line "%s %d" n v)
    s.Registry.counters;
  List.iter
    (fun (n, v) ->
      let n = prom_name n in
      line "# TYPE %s gauge" n;
      line "%s %d" n v)
    s.Registry.gauges;
  List.iter
    (fun (n, (r : Registry.hist_row)) ->
      let n = prom_name n in
      line "# TYPE %s histogram" n;
      let cum = ref 0 and approx_sum = ref 0.0 in
      Array.iteri
        (fun i c ->
          if c > 0 then begin
            cum := !cum + c;
            approx_sum := !approx_sum +. (float_of_int c *. representative_of i);
            line "%s_bucket{le=\"%s\"} %d" n (prom_le (upper_bound_of i)) !cum
          end)
        r.h_counts;
      line "%s_bucket{le=\"+Inf\"} %d" n r.count;
      line "%s_sum %s" n (prom_float !approx_sum);
      line "%s_count %d" n r.count)
    s.Registry.histograms;
  List.iter
    (fun (n, (count, total_ns, max_ns)) ->
      let n = prom_name n ^ "_span" in
      line "# TYPE %s_count counter" n;
      line "%s_count %d" n count;
      line "# TYPE %s_total_ns counter" n;
      line "%s_total_ns %d" n total_ns;
      line "# TYPE %s_max_ns gauge" n;
      line "%s_max_ns %d" n max_ns)
    s.Registry.spans;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Strict exposition parser (prom_check, tests)                        *)
(* ------------------------------------------------------------------ *)

type prom_sample = {
  p_name : string;
  p_labels : (string * string) list;
  p_value : float;
}

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let valid_name n =
  n <> ""
  && is_name_start n.[0]
  && String.for_all is_name_char n

let parse_value str =
  match str with
  | "+Inf" -> Some Float.infinity
  | "-Inf" -> Some Float.neg_infinity
  | "NaN" -> Some Float.nan
  | _ -> float_of_string_opt str

(* Parse a {k="v",...} label block starting just past '{'; returns the
   labels and the index just past '}'. *)
let parse_labels line i =
  let n = String.length line in
  let ident j =
    let rec go j = if j < n && is_name_char line.[j] then go (j + 1) else j in
    go j
  in
  let rec labels acc j =
    if j >= n then Error "unterminated label block"
    else if line.[j] = '}' then Ok (List.rev acc, j + 1)
    else begin
      let k_end = ident j in
      if k_end = j then Error "empty label name"
      else if k_end >= n || line.[k_end] <> '=' then Error "label missing '='"
      else if k_end + 1 >= n || line.[k_end + 1] <> '"' then
        Error "label value not quoted"
      else begin
        let key = String.sub line j (k_end - j) in
        let buf = Buffer.create 16 in
        let rec value j =
          if j >= n then Error "unterminated label value"
          else
            match line.[j] with
            | '"' -> Ok (j + 1)
            | '\\' ->
              if j + 1 >= n then Error "dangling escape"
              else begin
                (match line.[j + 1] with
                 | 'n' -> Buffer.add_char buf '\n'
                 | c -> Buffer.add_char buf c);
                value (j + 2)
              end
            | c ->
              Buffer.add_char buf c;
              value (j + 1)
        in
        match value (k_end + 2) with
        | Error e -> Error e
        | Ok j ->
          let acc = (key, Buffer.contents buf) :: acc in
          if j < n && line.[j] = ',' then labels acc (j + 1)
          else labels acc j
      end
    end
  in
  labels [] i

(* Strict line-oriented parse of the Prometheus text exposition format:
   every sample line must be [name[{labels}] value], every sample's
   family must carry a preceding [# TYPE] declaration, TYPE declarations
   must not repeat, histogram families must have monotone cumulative
   buckets ending in a [+Inf] bucket that equals [_count]. Returns the
   samples in file order. *)
let parse_prometheus text =
  let lines = String.split_on_char '\n' text in
  let types : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let parse_sample lineno line =
    let n = String.length line in
    let name_end =
      let rec go j = if j < n && is_name_char line.[j] then go (j + 1) else j in
      go 0
    in
    if name_end = 0 then err lineno "sample does not start with a metric name"
    else begin
      let name = String.sub line 0 name_end in
      if not (valid_name name) then err lineno ("invalid metric name " ^ name)
      else begin
        let labels_result =
          if name_end < n && line.[name_end] = '{' then
            parse_labels line (name_end + 1)
          else Ok ([], name_end)
        in
        match labels_result with
        | Error e -> err lineno e
        | Ok (labels, j) ->
          if j >= n || line.[j] <> ' ' then err lineno "expected space before value"
          else begin
            let value_str = String.sub line (j + 1) (n - j - 1) in
            let value_str = String.trim value_str in
            if value_str = "" then err lineno "missing sample value"
            else if String.contains value_str ' ' then
              err lineno "trailing junk after value (timestamps not accepted)"
            else
              match parse_value value_str with
              | None -> err lineno ("unparsable value " ^ value_str)
              | Some v -> Ok { p_name = name; p_labels = labels; p_value = v }
          end
      end
    end
  in
  let parse_type_line lineno line =
    (* "# TYPE <name> <counter|gauge|histogram>" *)
    match String.split_on_char ' ' line with
    | [ "#"; "TYPE"; name; kind ] ->
      if not (valid_name name) then err lineno ("invalid metric name " ^ name)
      else if not (List.mem kind [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
      then err lineno ("unknown metric type " ^ kind)
      else if Hashtbl.mem types name then
        err lineno ("duplicate TYPE declaration for " ^ name)
      else begin
        Hashtbl.replace types name kind;
        Ok ()
      end
    | _ -> err lineno "malformed TYPE line"
  in
  (* family resolution: histogram samples use the declared base name
     plus _bucket/_sum/_count; everything else matches its TYPE name
     exactly. *)
  let family_of name =
    if Hashtbl.mem types name then Some name
    else
      let strip suffix =
        if Filename.check_suffix name suffix then
          let base = Filename.chop_suffix name suffix in
          if Hashtbl.find_opt types base = Some "histogram" then Some base else None
        else None
      in
      match strip "_bucket" with
      | Some b -> Some b
      | None ->
        (match strip "_sum" with
         | Some b -> Some b
         | None -> strip "_count")
  in
  let rec walk lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let stripped = String.trim line in
      if stripped = "" then walk (lineno + 1) acc rest
      else if String.length stripped >= 1 && stripped.[0] = '#' then begin
        if String.length stripped >= 7 && String.sub stripped 0 7 = "# TYPE " then
          match parse_type_line lineno stripped with
          | Error e -> Error e
          | Ok () -> walk (lineno + 1) acc rest
        else walk (lineno + 1) acc rest (* HELP / free comments *)
      end
      else
        match parse_sample lineno stripped with
        | Error e -> Error e
        | Ok sample ->
          (match family_of sample.p_name with
           | None ->
             err lineno ("sample " ^ sample.p_name ^ " has no preceding TYPE declaration")
           | Some _ -> walk (lineno + 1) (sample :: acc) rest)
  in
  match walk 1 [] lines with
  | Error e -> Error e
  | Ok samples ->
    (* Histogram family invariants. *)
    let check_family name =
      let buckets =
        List.filter_map
          (fun s ->
            if s.p_name = name ^ "_bucket" then
              match List.assoc_opt "le" s.p_labels with
              | None -> Some (Error "histogram bucket without le label")
              | Some le ->
                (match parse_value le with
                 | None -> Some (Error ("unparsable le bound " ^ le))
                 | Some bound -> Some (Ok (bound, s.p_value)))
            else None)
          samples
      in
      let count =
        List.find_opt (fun s -> s.p_name = name ^ "_count") samples
      in
      let sum = List.find_opt (fun s -> s.p_name = name ^ "_sum") samples in
      match List.find_opt Result.is_error buckets with
      | Some (Error e) -> Error (name ^ ": " ^ e)
      | Some (Ok _) | None ->
        let buckets = List.filter_map Result.to_option buckets in
        if buckets = [] then Error (name ^ ": histogram has no buckets")
        else if count = None then Error (name ^ ": histogram missing _count")
        else if sum = None then Error (name ^ ": histogram missing _sum")
        else begin
          let rec monotone = function
            | (le1, c1) :: ((le2, c2) :: _ as rest) ->
              if le2 <= le1 then Error (name ^ ": bucket le bounds not increasing")
              else if c2 < c1 then Error (name ^ ": cumulative buckets decrease")
              else monotone rest
            | _ -> Ok ()
          in
          match monotone buckets with
          | Error e -> Error e
          | Ok () ->
            let last_le, last_c = List.nth buckets (List.length buckets - 1) in
            let count_v = (Option.get count).p_value in
            if last_le <> Float.infinity then
              Error (name ^ ": histogram missing +Inf bucket")
            else if last_c <> count_v then
              Error (name ^ ": +Inf bucket disagrees with _count")
            else Ok ()
        end
    in
    let hist_names =
      Hashtbl.fold (fun n k acc -> if k = "histogram" then n :: acc else acc) types []
    in
    let rec check = function
      | [] -> Ok samples
      | n :: rest ->
        (match check_family n with Error e -> Error e | Ok () -> check rest)
    in
    check hist_names
