module Splitmix = Rz_util.Splitmix

let c_injected = Rz_obs.Obs.Counter.make "fault.injected"

type kind =
  | Truncate_mid_object
  | Byte_splice
  | Crlf_line
  | Nul_line
  | Oversized_line
  | Duplicate_object
  | Interleave_objects
  | As_set_cycle_bomb
  | As_set_deep_bomb
  | Pathological_regex

let all_kinds =
  [ Truncate_mid_object; Byte_splice; Crlf_line; Nul_line; Oversized_line;
    Duplicate_object; Interleave_objects; As_set_cycle_bomb; As_set_deep_bomb;
    Pathological_regex ]

let kind_name = function
  | Truncate_mid_object -> "truncate-mid-object"
  | Byte_splice -> "byte-splice"
  | Crlf_line -> "crlf-line"
  | Nul_line -> "nul-line"
  | Oversized_line -> "oversized-line"
  | Duplicate_object -> "duplicate-object"
  | Interleave_objects -> "interleave-objects"
  | As_set_cycle_bomb -> "as-set-cycle-bomb"
  | As_set_deep_bomb -> "as-set-deep-bomb"
  | Pathological_regex -> "pathological-regex"

let kind_of_name name =
  List.find_opt (fun k -> kind_name k = name) all_kinds

type plan = {
  seed : int;
  rate : float;
  kinds : kind list;
}

let plan ?(kinds = all_kinds) ~seed ~rate () =
  if not (rate >= 0. && rate <= 1.) then
    invalid_arg (Printf.sprintf "Fault.plan: rate %g outside [0, 1]" rate);
  if kinds = [] then invalid_arg "Fault.plan: empty kind list";
  { seed; rate; kinds }

type report = {
  objects_seen : int;
  faults : (kind * int) list;
}

let total_faults r = List.fold_left (fun acc (_, n) -> acc + n) 0 r.faults

let report_lines r =
  Printf.sprintf "objects scanned: %d" r.objects_seen
  :: Printf.sprintf "faults injected: %d" (total_faults r)
  :: List.filter_map
       (fun (k, n) ->
         if n = 0 then None else Some (Printf.sprintf "  %-20s %d" (kind_name k) n))
       r.faults

(* ---------------- paragraph machinery ----------------

   Dumps are blank-line-separated paragraphs (see Rz_synthirr.Generate and
   Rz_rpsl.Reader); faults operate at paragraph granularity so a corrupted
   object damages itself, not the framing of its neighbours — except the
   faults whose whole point is to damage the framing. *)

let split_paragraphs text =
  let paras = ref [] and cur = ref [] in
  List.iter
    (fun line ->
      if String.trim line = "" then begin
        (match !cur with [] -> () | ls -> paras := List.rev ls :: !paras);
        cur := []
      end
      else cur := line :: !cur)
    (String.split_on_char '\n' text);
  (match !cur with [] -> () | ls -> paras := List.rev ls :: !paras);
  List.rev !paras

let join_paragraphs paras =
  match paras with
  | [] -> ""
  | _ -> String.concat "\n\n" (List.map (String.concat "\n") paras) ^ "\n"

let relines s = String.split_on_char '\n' s

(* ---------------- bomb payloads ----------------

   Bombs are appended as fresh paragraphs rather than edits, so they are
   syntactically clean RPSL that survives parsing and detonates in the
   layer it targets (flattening, NFA compilation). [idx] keeps names
   unique across multiple applications. *)

(* One past Rz_irr.Db.max_flatten_depth (64); kept literal to avoid a
   dependency cycle — suite_fault pins the relationship. *)
let deep_bomb_depth = 96

let deep_bomb idx =
  List.init deep_bomb_depth (fun i ->
      let self = Printf.sprintf "AS-FAULT-DEEP-%d-%d" idx i in
      let member =
        if i = deep_bomb_depth - 1 then "AS1"
        else Printf.sprintf "AS-FAULT-DEEP-%d-%d" idx (i + 1)
      in
      [ "as-set: " ^ self; "members: " ^ member ])

let cycle_bomb idx =
  List.init 3 (fun i ->
      [ Printf.sprintf "as-set: AS-FAULT-CYC-%d-%d" idx i;
        Printf.sprintf "members: AS-FAULT-CYC-%d-%d" idx ((i + 1) mod 3) ])

(* {3000,6000} estimates to ~24_000 NFA states — past the 10_000 cap, so
   Regex_nfa.compile refuses it and the verify engine abstains. The ASN is
   far outside the synthetic topology range so it collides with nothing. *)
let regex_bomb idx =
  let asn = 3_900_000 + idx in
  [ [ Printf.sprintf "aut-num: AS%d" asn;
      Printf.sprintf "as-name: FAULT-REGEX-%d" idx;
      "import: from AS1 accept <^AS2{3000,6000}$>";
      "export: to AS1 announce ANY" ] ]

(* ---------------- per-object faults ---------------- *)

let oversized_payload_len = 70_000 (* > Reader.max_line_bytes *)

let splice_bytes rng s =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    let n = 1 + Splitmix.int rng 4 in
    for _ = 1 to n do
      Bytes.set b (Splitmix.int rng (Bytes.length b))
        (Char.chr (Splitmix.int rng 256))
    done;
    Bytes.to_string b
  end

let truncate_mid rng s =
  if String.length s <= 1 then s
  else String.sub s 0 (1 + Splitmix.int rng (String.length s - 1))

let interleave a b =
  let rec go acc = function
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xs, y :: ys -> go (y :: x :: acc) (xs, ys)
  in
  go [] (a, b)

(* Apply [kind] to the paragraph stream at the current position.
   [para] is the chosen paragraph, [rest] the paragraphs after it.
   Returns (replacement paragraphs, remaining stream, appended bombs). *)
let apply_fault rng ~bomb_idx kind para rest =
  match kind with
  | Truncate_mid_object ->
    ([ relines (truncate_mid rng (String.concat "\n" para)) ], rest, [])
  | Byte_splice ->
    ([ relines (splice_bytes rng (String.concat "\n" para)) ], rest, [])
  | Crlf_line -> ([ List.map (fun l -> l ^ "\r") para ], rest, [])
  | Nul_line ->
    let garbage = "\x00\x00\xffbinary garbage\x00\x01\x02" in
    let pos = Splitmix.int rng (List.length para + 1) in
    let lines =
      List.concat (List.mapi (fun i l -> if i = pos then [ garbage; l ] else [ l ]) para)
    in
    ((if pos = List.length para then [ para @ [ garbage ] ] else [ lines ]), rest, [])
  | Oversized_line ->
    ([ para @ [ "remarks: " ^ String.make oversized_payload_len 'x' ] ], rest, [])
  | Duplicate_object -> ([ para; para ], rest, [])
  | Interleave_objects -> (
    match rest with
    | next :: rest' -> ([ interleave para next ], rest', [])
    | [] -> ([ para; para ], rest, []) (* no neighbour: degrade to duplicate *))
  | As_set_cycle_bomb -> ([ para ], rest, cycle_bomb bomb_idx)
  | As_set_deep_bomb -> ([ para ], rest, deep_bomb bomb_idx)
  | Pathological_regex -> ([ para ], rest, regex_bomb bomb_idx)

(* ---------------- driver ---------------- *)

type ctx = {
  rng : Splitmix.t;
  kinds : kind array;
  rate : float;
  counts : (kind, int) Hashtbl.t;
  mutable seen : int;
  mutable bombs : int; (* unique index for appended payload names *)
}

let record ctx kind =
  Hashtbl.replace ctx.counts kind
    (1 + Option.value ~default:0 (Hashtbl.find_opt ctx.counts kind));
  Rz_obs.Obs.Counter.incr c_injected

let corrupt_text ctx text =
  let touched = ref false in
  let rec go acc tail paras =
    match paras with
    | [] -> (List.rev acc, List.rev tail)
    | para :: rest ->
      ctx.seen <- ctx.seen + 1;
      if ctx.rate > 0. && Splitmix.chance ctx.rng ctx.rate then begin
        touched := true;
        let kind = Splitmix.choose ctx.rng ctx.kinds in
        record ctx kind;
        let bomb_idx = ctx.bombs in
        let replaced, rest, bombs = apply_fault ctx.rng ~bomb_idx kind para rest in
        if bombs <> [] then ctx.bombs <- ctx.bombs + 1;
        go (List.rev_append replaced acc) (List.rev_append bombs tail) rest
      end
      else go (para :: acc) tail rest
  in
  let paras, bombs = go [] [] (split_paragraphs text) in
  (* Untouched dumps stay byte-identical — re-joining would normalize
     whitespace and spoil the rate-0/no-hit identity guarantee. *)
  if not !touched then text else join_paragraphs (paras @ bombs)

let finish_report ctx =
  { objects_seen = ctx.seen;
    faults =
      List.map
        (fun k -> (k, Option.value ~default:0 (Hashtbl.find_opt ctx.counts k)))
        all_kinds }

let make_ctx plan =
  { rng = Splitmix.create plan.seed;
    kinds = Array.of_list plan.kinds;
    rate = plan.rate;
    counts = Hashtbl.create 16;
    seen = 0;
    bombs = 0 }

let corrupt_dump plan text =
  let ctx = make_ctx plan in
  let corrupted = if plan.rate = 0. then text else corrupt_text ctx text in
  (corrupted, finish_report ctx)

let corrupt_dumps plan dumps =
  let ctx = make_ctx plan in
  let out =
    List.map
      (fun (source, text) ->
        (source, if plan.rate = 0. then text else corrupt_text ctx text))
      dumps
  in
  (out, finish_report ctx)
