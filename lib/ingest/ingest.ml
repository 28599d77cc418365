(* Multi-IRR ingestion: one sequential pass over the dumps in priority
   order. Each dump is parsed by the single-pass scanner
   ([Reader.scan_string]) and lowered into one IR with [Fast_policy]'s
   memoized rule and member-list parsers. The IR's own tables carry the
   inter-IRR first-definition-wins gate, exactly as in the
   [Lower.add_dump] loop of [ingest_sequential], so the result is
   byte-identical to that oracle under [Ir_json.export] (the
   differential suite holds this under QCheck, including over
   rz_fault-corrupted worlds). *)

(* One increment per [ingest] call: the pass always runs on one domain. *)
let c_domains = Rz_obs.Obs.Counter.make "ingest.parallel.domains"
let c_snapshot_hits = Rz_obs.Obs.Counter.make "snapshot.hits"
let c_snapshot_misses = Rz_obs.Obs.Counter.make "snapshot.misses"

(* The deprecated [?domains] argument: accepted only as 1. *)
let check_domains = function
  | None | Some 1 -> ()
  | Some n ->
    invalid_arg (Printf.sprintf "Ingest: ~domains:%d (deprecated; only 1 is accepted)" n)

(* The sequential oracle: exactly what [Db.of_dumps] does before the
   index build. The ingest bench uses it as the ablation baseline; the
   differential suite as ground truth. *)
let ingest_sequential dumps =
  let ir = Rz_ir.Ir.create () in
  List.iter (fun (source, text) -> ignore (Rz_ir.Lower.add_dump ir ~source text)) dumps;
  ir

let ingest ?domains dumps =
  check_domains domains;
  Rz_obs.Obs.Counter.incr c_domains;
  let ir = Rz_ir.Ir.create () in
  let rule_parser = Fast_policy.cached_rule_parser () in
  let split = Fast_policy.cached_split () in
  List.iter
    (fun (source, text) ->
      let parsed =
        Rz_obs.Obs.Span.with_ "parse" (fun () -> Rz_rpsl.Reader.scan_string text)
      in
      Rz_ir.Lower.add_reader_errors ir ~source parsed.errors;
      Rz_ir.Lower.add_objects ~rule_parser ~split ir ~source parsed.objects)
    dumps;
  ir

(* MD5 over the input dumps (sources and texts, NUL-framed): the staleness
   key stored in a snapshot's header. *)
let dumps_digest dumps =
  Digest.string
    (String.concat "\x00"
       (List.concat_map (fun (source, text) -> [ source; text ]) dumps))

(* Snapshot-backed ingest: load when the file carries this exact input's
   digest (hit); otherwise — absent, rejected, or stale — ingest and
   (re)write it (miss). Rejections additionally bump [snapshot.rejects]
   inside [Ir_snapshot.load]; a stale-but-valid snapshot is only a miss. *)
let ingest_cached ~snapshot dumps =
  let digest = dumps_digest dumps in
  let cached =
    if Sys.file_exists snapshot then
      match Rz_ir.Ir_snapshot.load snapshot with
      | Ok (d, ir) when String.equal d digest -> Some ir
      | Ok _ | Error _ -> None
    else None
  in
  match cached with
  | Some ir ->
    Rz_obs.Obs.Counter.incr c_snapshot_hits;
    ir
  | None ->
    Rz_obs.Obs.Counter.incr c_snapshot_misses;
    let ir = ingest dumps in
    (try Rz_ir.Ir_snapshot.save snapshot ~input_digest:digest ir
     with Sys_error _ -> ());
    ir

let db_of_dumps ?domains ?snapshot dumps =
  check_domains domains;
  let ir =
    match snapshot with
    | Some path -> ingest_cached ~snapshot:path dumps
    | None -> ingest dumps
  in
  Rz_irr.Db.build ir
