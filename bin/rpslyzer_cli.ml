(* RPSLyzer command-line interface. Each subcommand names the paper
   section it reproduces or the test that drives it (test/cli/).

     gen          write a synthetic world directory: IRR dumps, AS
                  relationships, collector table dumps, ROAs (every
                  smoke test; the benchmark world)
     parse        export the IR as JSON (Section 3)
     stats        Section-4 characterization report
     verify       Section-5 verification of the collector routes
     explain      one route's per-hop report with provenance (Appendix C)
     query        IRRd-protocol queries and plain whois lookups
                  (Appendix A transcripts)
     serve        the IRRd query service over live NRTM generations
                  (serve_smoke.sh)
     peval        materialize a filter to its prefix set, like
                  IRRToolSet's peval (cli_test.sh)
     lint         RPSL misuse diagnostics (Section 7 future work)
     classify     per-AS RPSL usage styles (Section 7 future work)
     diff         policy evolution of two snapshots (Section 7 future
                  work)
     rpki         RPSL verdicts against RPKI origin validation
                  (Section 6; rpki_diff.sh)
     stream       incremental verification of an update feed
                  (stream_smoke.sh)
     faultinject  the pipeline on corrupted dumps (chaos_smoke.sh) *)

open Cmdliner

let dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"World directory (see $(b,gen)).")

(* Exit policy: commands run under [guarded], so hard failures from
   hostile inputs (unreadable world directory, malformed as-rel.txt or
   table dumps — surfaced as Sys_error/Invalid_argument/Failure) print a
   diagnostic and exit 1 instead of dying with an OCaml backtrace.
   [faultinject] additionally exits 2 for partial failure: the pipeline
   completed but recovery paths fired (keep-going semantics). *)
let guarded body =
  try body () with
  | Failure msg | Invalid_argument msg | Sys_error msg ->
    Printf.eprintf "rpslyzer: %s\n%!" msg;
    exit 1

(* ---------------- observability options ---------------- *)

(* Shared flags enabling the Rz_obs registry and the Rz_trace layer
   around a command body:

     --metrics [FILE]         final JSON snapshot (FILE "-" = stdout)
     --trace FILE             Chrome trace_event export of the span tree
                              plus sampled hop records
     --trace-sample POLICY    hop decision-trace sampling: all | off |
                              quota:N (default quota:64 when --trace is
                              given, off otherwise)
     --metrics-stream FILE    periodic JSONL snapshots from a sampler
                              domain, every --metrics-interval seconds *)

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Collect pipeline metrics (phase timings, counters, latency \
           histograms) and write them as a JSON snapshot to $(docv) when the \
           command finishes. $(docv) '-', or the flag without a value, \
           prints the JSON to stdout.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON array to $(docv) when the command \
           finishes: every Rz_obs span as a complete event (one lane per \
           domain) plus the sampled hop decision records as instant events. \
           Load it in chrome://tracing or Perfetto. Implies metric \
           collection.")

let sampling_conv =
  let parse s =
    match Rpslyzer.Trace.sampling_of_string s with
    | Some p -> Ok p
    | None ->
      Error (`Msg (Printf.sprintf "invalid sampling policy %S (all | off | quota:N)" s))
  in
  let print fmt p = Format.pp_print_string fmt (Rpslyzer.Trace.sampling_to_string p) in
  Arg.conv (parse, print)

let trace_sample_arg =
  Arg.(
    value
    & opt (some sampling_conv) None
    & info [ "trace-sample" ] ~docv:"POLICY"
        ~doc:
          "Hop decision-trace sampling policy: $(b,all), $(b,off), or \
           $(b,quota:N) (keep the first N records per verdict class). \
           Defaults to quota:64 when $(b,--trace) is given, off \
           otherwise.")

let stream_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-stream" ] ~docv:"FILE"
        ~doc:
          "Stream metrics for long runs: a sampler domain appends one JSONL \
           line (elapsed seconds + full registry snapshot) to $(docv) every \
           $(b,--metrics-interval) seconds, plus a final line at exit. \
           Implies metric collection.")

let interval_arg =
  Arg.(
    value & opt float 5.0
    & info [ "metrics-interval" ] ~docv:"SECONDS"
        ~doc:"Sampling interval for $(b,--metrics-stream) (default 5.0).")

let prom_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "prom-file" ] ~docv:"FILE"
        ~doc:
          "Write the final registry snapshot in the Prometheus text \
           exposition format to $(docv) when the command finishes \
           (counters, gauges, cumulative histogram buckets, rolling \
           windows, spans). $(docv) '-' prints to stdout. Implies metric \
           collection; validated by the $(b,prom_check) tool.")

type obs_opts = {
  o_metrics : string option;
  o_trace : string option;
  o_sample : Rpslyzer.Trace.sampling option;
  o_stream : string option;
  o_interval : float;
  o_prom : string option;
}

let obs_opts_term =
  Term.(
    const (fun o_metrics o_trace o_sample o_stream o_interval o_prom ->
        { o_metrics; o_trace; o_sample; o_stream; o_interval; o_prom })
    $ metrics_arg $ trace_arg $ trace_sample_arg $ stream_arg $ interval_arg
    $ prom_arg)

(* Shared --snapshot FILE flag (parse/stats/verify): binary IR snapshot
   cache keyed on the dumps' digest. A valid, current snapshot skips
   parsing entirely; anything else — absent, stale, corrupt — falls back
   to a parse and rewrites the file. *)
let snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"FILE"
        ~doc:
          "Cache the parsed IR in $(docv). When $(docv) already holds a \
           snapshot built from exactly these dumps, loading it replaces the \
           parse (counted as snapshot.hits); a stale, truncated, or corrupt \
           file is ignored (snapshot.misses / snapshot.rejects) and \
           rewritten after the parse.")

let read_file ~what path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error e -> failwith ("cannot read " ^ what ^ ": " ^ e)

let write_file ~what path contents =
  try
    let oc = open_out path in
    output_string oc contents;
    output_char oc '\n';
    close_out oc
  with Sys_error e ->
    Printf.eprintf "rpslyzer: cannot write %s: %s\n%!" what e;
    exit 1

(* Wrap a command body in the observability lifecycle: enable the
   registry when any flag asks for it, stamp run metadata into
   [Obs.Meta], configure hop-trace sampling, install the Chrome span
   sink and the metrics-stream sampler, and in the [Fun.protect]
   finalizer tear it all down in dependency order — duration metadata
   first (so the stream's final line carries it), then the stream, then
   the trace export, then the metrics snapshot. *)
let with_obs ~cmd ?seed opts body =
  let module T = Rpslyzer.Trace in
  let any =
    opts.o_metrics <> None || opts.o_trace <> None || opts.o_stream <> None
    || opts.o_prom <> None
  in
  if any then Rpslyzer.Obs.enable ();
  if Rpslyzer.Obs.enabled () then begin
    Rpslyzer.Obs.Meta.set "subcommand" (Rpslyzer.Json.String cmd);
    Rpslyzer.Obs.Meta.set "start_unix_s" (Rpslyzer.Json.Float (Unix.gettimeofday ()));
    match seed with
    | Some s -> Rpslyzer.Obs.Meta.set "seed" (Rpslyzer.Json.Int s)
    | None -> ()
  end;
  (match (opts.o_sample, opts.o_trace) with
   | Some policy, _ -> T.configure policy
   | None, Some _ -> T.configure (T.Per_status 64)
   | None, None -> ());
  if opts.o_trace <> None then T.Chrome.install ();
  let stream =
    Option.map
      (fun path -> T.Metrics_stream.start ~interval_s:opts.o_interval path)
      opts.o_stream
  in
  let t0 = Unix.gettimeofday () in
  Fun.protect body ~finally:(fun () ->
      if Rpslyzer.Obs.enabled () then
        Rpslyzer.Obs.Meta.set "duration_s"
          (Rpslyzer.Json.Float (Unix.gettimeofday () -. t0));
      (match stream with Some s -> T.Metrics_stream.stop s | None -> ());
      (match opts.o_trace with
       | Some path ->
         T.Chrome.uninstall ();
         let json = T.Chrome.export ~records:(T.records ()) () in
         write_file ~what:"trace" path (Rpslyzer.Json.to_string json)
       | None -> ());
      if T.enabled () then T.configure T.Off;
      (match opts.o_prom with
       | None -> ()
       | Some dest ->
         let text =
           Rpslyzer.Obs.to_prometheus (Rpslyzer.Obs.Registry.snapshot ())
         in
         if dest = "-" then print_string text
         else write_file ~what:"prometheus exposition" dest text);
      match opts.o_metrics with
      | None -> ()
      | Some dest ->
        let json =
          Rpslyzer.Json.to_string
            (Rpslyzer.Obs.Registry.to_json (Rpslyzer.Obs.Registry.snapshot ()))
        in
        if dest = "-" then print_endline json
        else write_file ~what:"metrics" dest json)

(* ---------------- shared plumbing ---------------- *)

(* The exit-2 policy of serve, rpki, stream and faultinject: the
   recovery counters ([Obs.recovery_counter_names]) and their values. *)
let recovery_counts () =
  let counters = Rpslyzer.Obs.Registry.(counters (snapshot ())) in
  List.map
    (fun name -> (name, Option.value ~default:0 (List.assoc_opt name counters)))
    Rpslyzer.Obs.recovery_counter_names

let recovered () = List.exists (fun (_, n) -> n > 0) (recovery_counts ())

(* The world of serve, stream and faultinject: DIR when given, otherwise
   a small in-memory world, deterministic in [seed]. *)
let load_or_synthesize ~seed ~snapshot = function
  | Some dir -> Rpslyzer.Pipeline.load_world ?snapshot dir
  | None ->
    let topo_params =
      { Rz_topology.Gen.default_params with seed; n_tier1 = 3; n_mid = 40; n_stub = 150 }
    in
    let irr_config = { Rz_synthirr.Config.default with seed = seed + 1 } in
    Rpslyzer.Pipeline.build_synthetic ~topo_params ~irr_config ()

(* The first five rejected lines of a journal, on stderr. *)
let warn_rejected ~cmd errors =
  List.iteri
    (fun i (line, reason) ->
      if i < 5 then Printf.eprintf "%s: journal line %d rejected: %s\n%!" cmd line reason)
    errors

(* --golden FILE of rpki and stream: the differences of [doc] from the
   baseline document in FILE. [exit_on_golden] reports them once the
   command's output is written, and exits 1 on any. *)
let golden_diff golden doc =
  match golden with
  | None -> []
  | Some path -> (
    match Rpslyzer.Json.of_string (read_file ~what:"golden file" path) with
    | Error e -> failwith (Printf.sprintf "golden file %s: %s" path e)
    | Ok baseline -> Rpslyzer.Json.diff ~baseline doc)

let exit_on_golden golden = function
  | [] -> if golden <> None then print_endline "golden: MATCH"
  | diffs ->
    Printf.eprintf "golden: MISMATCH (%d differences)\n" (List.length diffs);
    List.iter (fun d -> Printf.eprintf "  %s\n" d) diffs;
    exit 1

(* ---------------- gen ---------------- *)

(* Populations of the paper preset at --scale 1.0, shrunk linearly by
   --scale (with small floors so tiny scales still produce a connected,
   verifiable world). Full scale approximates the paper's run: ~75k
   registered ASes, 60 collectors peering with the large networks. *)
let paper_preset ~scale =
  let sc base floor =
    max floor (int_of_float (Float.round (scale *. float_of_int base)))
  in
  ( sc 20 3 (* tier1 *),
    sc 2500 10 (* mid *),
    sc 72000 40 (* stub *),
    sc 60 2 (* collectors *),
    sc 300 4 (* collector-peer mids *) )

let gen_cmd =
  let run obs seed n_tier1 n_mid n_stub out world_scale scale roa_adoption
      roa_wrong roa_stale roa_hostile journal_ops journal_out =
    guarded @@ fun () ->
    with_obs ~cmd:"gen" ~seed obs @@ fun () ->
    let irr_config = { Rz_synthirr.Config.default with seed = seed + 1 } in
    (* The options pick only a population; one writer streams the world. *)
    let (n_tier1, n_mid, n_stub, n_collectors, n_collector_mids), note =
      match world_scale with
      | None ->
        ( ( n_tier1, n_mid, n_stub,
            Rpslyzer.Pipeline.n_collectors, Rpslyzer.Pipeline.n_collector_mids ),
          "" )
      | Some "paper" ->
        let (_, _, _, n_collectors, _) as population = paper_preset ~scale in
        ( population,
          Printf.sprintf " (paper preset at scale %g, %d collectors, streamed)" scale
            n_collectors )
      | Some preset -> failwith (Printf.sprintf "unknown --world-scale preset %S" preset)
    in
    let topo_params =
      { Rz_topology.Gen.default_params with seed; n_tier1; n_mid; n_stub }
    in
    let synth, n_routes =
      Rpslyzer.Pipeline.write_world ~topo_params ~irr_config ~n_collectors
        ~n_collector_mids out
    in
    Printf.printf "wrote %d IRR dumps, as-rel.txt, %d collector routes to %s%s\n"
      (List.length synth.dumps) n_routes out note;
    let roagen =
      Rz_rpki.Roagen.generate
        ~config:
          { seed = seed + 2;
            adoption = roa_adoption;
            wrong_maxlen_prob = roa_wrong;
            stale_origin_prob = roa_stale;
            hostile_covering_prob = roa_hostile }
        synth.topo
    in
    let roa_path = Filename.concat out "roas.csv" in
    write_file ~what:"roas.csv" roa_path
      (Rz_rpki.Roa.render roagen.roas);
    let s = roagen.stats in
    Printf.printf
      "wrote %d ROAs (%d clean, %d wrong-maxLength, %d stale-origin, %d \
       hostile-covering) to %s\n"
      (List.length roagen.roas)
      s.Rz_rpki.Roagen.n_clean s.n_wrong_maxlen s.n_stale s.n_hostile roa_path;
    if journal_ops > 0 then begin
      (* NRTM-style churn journal over the dumps just written, for the
         serve subcommand's live generation swaps (!u). *)
      let ops = Rz_synthirr.Nrtm.generate ~seed:(seed + 3) ~n:journal_ops synth.dumps in
      let path =
        match journal_out with
        | Some path -> path
        | None -> Filename.concat out "journal.nrtm"
      in
      let oc = open_out path in
      output_string oc (Rz_synthirr.Nrtm.render ops);
      close_out oc;
      Printf.printf "wrote %d-op NRTM journal to %s\n" (List.length ops) path
    end
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let n_tier1 = Arg.(value & opt int 5 & info [ "tier1" ] ~doc:"Number of Tier-1 ASes.") in
  let n_mid = Arg.(value & opt int 120 & info [ "mid" ] ~doc:"Number of transit ASes.") in
  let n_stub = Arg.(value & opt int 500 & info [ "stub" ] ~doc:"Number of stub ASes.") in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let roa_adoption =
    Arg.(
      value & opt float Rz_rpki.Roagen.default.adoption
      & info [ "roa-adoption" ] ~docv:"P"
          ~doc:"Probability an AS signs ROAs for its prefixes.")
  in
  let roa_wrong =
    Arg.(
      value & opt float Rz_rpki.Roagen.default.wrong_maxlen_prob
      & info [ "roa-wrong-maxlen" ] ~docv:"P"
          ~doc:"Per-prefix probability of a misconfigured-maxLength ROA.")
  in
  let roa_stale =
    Arg.(
      value & opt float Rz_rpki.Roagen.default.stale_origin_prob
      & info [ "roa-stale" ] ~docv:"P"
          ~doc:"Per-prefix probability of a stale-origin ROA.")
  in
  let roa_hostile =
    Arg.(
      value & opt float Rz_rpki.Roagen.default.hostile_covering_prob
      & info [ "roa-hostile" ] ~docv:"P"
          ~doc:"Per-prefix probability of a hostile covering ROA.")
  in
  let world_scale =
    Arg.(
      value
      & opt (some string) None
      & info [ "world-scale" ] ~docv:"PRESET"
          ~doc:
            "Population preset; the only value is $(b,paper) (the paper's \
             run shape: ~75k ASes and 60 collectors at $(b,--scale) 1.0). \
             $(b,--tier1/--mid/--stub) are then ignored.")
  in
  let scale =
    Arg.(
      value & opt float 0.01
      & info [ "scale" ] ~docv:"F"
          ~doc:
            "Linear shrink factor for $(b,--world-scale) populations \
             (1.0 = full paper scale).")
  in
  let journal_ops =
    Arg.(
      value & opt int 0
      & info [ "journal-ops" ] ~docv:"N"
          ~doc:
            "Also emit an NRTM-style add/modify/delete journal of about \
             $(docv) operations against the written dumps, for \
             $(b,serve --journal) live generation swaps. 0 (default) \
             skips it.")
  in
  let journal_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-out" ] ~docv:"FILE"
          ~doc:
            "Where to write the $(b,--journal-ops) journal (default \
             DIR/journal.nrtm).")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Generate a synthetic world (IRRs, relationships, BGP dumps, ROAs).")
    Term.(
      const run $ obs_opts_term $ seed $ n_tier1 $ n_mid $ n_stub $ out
      $ world_scale $ scale $ roa_adoption $ roa_wrong $ roa_stale
      $ roa_hostile $ journal_ops $ journal_out)

(* ---------------- parse ---------------- *)

let parse_cmd =
  let run obs dir snapshot output indent =
    guarded @@ fun () ->
    with_obs ~cmd:"parse" obs @@ fun () ->
    let dumps = Rpslyzer.Pipeline.load_dumps dir in
    let ir =
      match snapshot with
      | Some file -> Rz_ingest.Ingest.ingest_cached ~snapshot:file dumps
      | None -> Rz_ingest.Ingest.ingest dumps
    in
    let json = Rz_ir.Ir_json.export_string ~indent ir in
    (match output with
     | Some path ->
       let oc = open_out path in
       output_string oc json;
       close_out oc;
       Printf.printf "wrote IR for %d aut-nums to %s\n"
         (Hashtbl.length ir.Rz_ir.Ir.aut_nums) path
     | None -> print_endline json)
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write JSON here instead of stdout.")
  in
  let indent =
    Arg.(value & opt int 0 & info [ "indent" ] ~doc:"Pretty-print with this indent.")
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse the IRR dumps of a world and export the IR as JSON.")
    Term.(const run $ obs_opts_term $ dir_arg $ snapshot_arg $ output $ indent)

(* ---------------- stats ---------------- *)

let print_table1 (rows : Rz_stats.Usage.table1_row list) =
  Rz_util.Table.print
    ~header:[ "IRR"; "SIZE (KiB)"; "aut-num"; "route"; "import"; "export" ]
    (List.map
       (fun (r : Rz_stats.Usage.table1_row) ->
         [ r.irr;
           string_of_int (r.size_bytes / 1024);
           Rz_util.Table.commas r.n_aut_num;
           Rz_util.Table.commas r.n_route;
           Rz_util.Table.commas r.n_import;
           Rz_util.Table.commas r.n_export ])
       rows)

let stats_cmd =
  let run obs dir snapshot =
    guarded @@ fun () ->
    with_obs ~cmd:"stats" obs @@ fun () ->
    let world = Rpslyzer.Pipeline.load_world ?snapshot dir in
    let u = Rpslyzer.Pipeline.usage world in
    print_endline "== Table 1: IRRs ==";
    print_table1 u.table1;
    Printf.printf "\npeering definitions that are a single ASN or ANY: %s\n"
      (Rz_util.Table.pct u.peering_simple_fraction);
    Printf.printf "ASes with rules fully BGPq4-compatible: %s\n"
      (Rz_util.Table.pct u.ases_bgpq4_only);
    print_endline "\n== Rules per aut-num (CCDF) ==";
    List.iter
      (fun (x, f) -> Printf.printf "  P(rules >= %4d) = %s\n" x (Rz_util.Table.pct f))
      (Rz_util.Stats_util.ccdf_at (List.map snd u.rules_per_aut_num) [ 1; 10; 100; 1000 ]);
    print_endline "\n== Route objects ==";
    Printf.printf "  objects %s / unique pairs %s / unique prefixes %s\n"
      (Rz_util.Table.commas u.route_stats.n_objects)
      (Rz_util.Table.commas u.route_stats.n_prefix_origin)
      (Rz_util.Table.commas u.route_stats.n_prefixes);
    Printf.printf "  multi-object %d, multi-origin %d, multi-maintainer %d prefixes\n"
      u.route_stats.multi_object_prefixes u.route_stats.multi_origin_prefixes
      u.route_stats.multi_maintainer_prefixes;
    print_endline "\n== as-sets ==";
    Printf.printf "  total %d: empty %d, singleton %d, recursive %d (loops %d, depth>=5 %d)\n"
      u.as_set_stats.n_sets u.as_set_stats.empty u.as_set_stats.singleton
      u.as_set_stats.recursive u.as_set_stats.with_loop u.as_set_stats.depth_5_plus;
    print_endline "\n== Errors ==";
    Printf.printf "  syntax %d, invalid as-set names %d, invalid route-set names %d\n"
      u.error_stats.syntax_errors u.error_stats.invalid_as_set_names
      u.error_stats.invalid_route_set_names
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Characterize RPSL usage (the paper's Section 4).")
    Term.(const run $ obs_opts_term $ dir_arg $ snapshot_arg)

(* ---------------- verify ---------------- *)

let verify_cmd =
  let run obs dir snapshot paper_compat verbose =
    guarded @@ fun () ->
    with_obs ~cmd:"verify" obs @@ fun () ->
    let world = Rpslyzer.Pipeline.load_world ?snapshot dir in
    let config = { Rz_verify.Engine.default_config with paper_compat } in
    let t0 = Unix.gettimeofday () in
    let agg, `Total total, `Excluded excluded = Rpslyzer.Pipeline.verify ~config world in
    let elapsed = Unix.gettimeofday () -. t0 in
    Printf.printf "verified %d routes (%d excluded) in %.2fs (%.0f routes/s)\n" total
      excluded elapsed
      (float_of_int total /. elapsed);
    let c = Rz_verify.Aggregate.overall agg in
    let hop_total = float_of_int (Rz_verify.Aggregate.n_hops agg) in
    print_endline "\n== hop statuses ==";
    List.iter
      (fun (label, count) ->
        Printf.printf "  %-11s %9s (%s)\n" label (Rz_util.Table.commas count)
          (Rz_util.Table.pct (float_of_int count /. hop_total)))
      (Rz_verify.Aggregate.counts_classes c);
    if verbose then begin
      let s2 = Rz_verify.Aggregate.per_as_summary agg in
      Printf.printf "\nASes: %d (single-status %s, all-verified %s)\n" s2.n_ases
        (Rz_util.Table.pct (float_of_int s2.all_same_status /. float_of_int s2.n_ases))
        (Rz_util.Table.pct (float_of_int s2.all_verified /. float_of_int s2.n_ases))
    end
  in
  let paper_compat =
    Arg.(
      value & flag
      & info [ "paper-compat" ]
          ~doc:"Skip the rules the paper's implementation skips (community \
                filters, ASN ranges, ~ operators).")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Extra summaries.") in
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify collector routes against the RPSL (Section 5).")
    Term.(
      const run $ obs_opts_term $ dir_arg $ snapshot_arg $ paper_compat $ verbose)

(* ---------------- explain ---------------- *)

let explain_cmd =
  let run dir json_out prefix path =
    guarded @@ fun () ->
    let world = Rpslyzer.Pipeline.load_world dir in
    match Rz_net.Prefix.of_string prefix with
    | Error e -> prerr_endline e; exit 1
    | Ok pfx ->
      let asns = List.filter_map (fun s -> Result.to_option (Rz_net.Asn.of_string s)) path in
      if List.length asns <> List.length path then begin
        prerr_endline "malformed ASN in path";
        exit 1
      end;
      let route = Rz_bgp.Route.make pfx asns in
      (match Rpslyzer.Pipeline.explain_route_traced world route with
       | Some e ->
         if json_out then
           print_endline
             (Rpslyzer.Json.to_string (Rpslyzer.Pipeline.explanation_to_json e))
         else print_endline (Rpslyzer.Pipeline.explanation_to_text e)
       | None ->
         if json_out then
           print_endline
             (Rpslyzer.Json.to_string
                (Rpslyzer.Json.Obj
                   [ ("route", Rpslyzer.Json.String (Rz_bgp.Route.to_line route));
                     ("excluded", Rpslyzer.Json.Bool true);
                     ("hops", Rpslyzer.Json.List []) ]))
         else print_endline "route excluded (single AS or AS_SET path)")
  in
  let json_out =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the explanation as JSON: one object per hop with its \
             Appendix-C verdict and the full provenance record (rule \
             consulted, filter kind, as-set expansion path, relaxation \
             trigger).")
  in
  let prefix =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PREFIX" ~doc:"Route prefix.")
  in
  let path =
    Arg.(value & pos_right 0 string [] & info [] ~docv:"ASN..." ~doc:"AS-path, collector side first.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Verify one route with decision tracing forced on and print the \
          per-hop report (Appendix C) with each hop's provenance.")
    Term.(const run $ dir_arg $ json_out $ prefix $ path)

(* ---------------- query (IRRd protocol) ---------------- *)

let query_cmd =
  let run dir queries =
    guarded @@ fun () ->
    let db = Rz_ingest.Ingest.db_of_dumps (Rpslyzer.Pipeline.load_dumps dir) in
    (* Both modes route through the service's shared dispatch, so the
       one-shot command applies exactly the admission guards the server
       does. *)
    if queries = [] then begin
      (* interactive: read query lines from stdin until EOF or !q.
         Flush per response — piped clients wait on each answer. *)
      try
        while true do
          let line = input_line stdin in
          match Rz_serve.Serve.dispatch db line with
          | Rz_irr.Irrd_query.Quit -> raise Exit
          | resp ->
            print_string (Rz_irr.Irrd_query.render resp);
            flush stdout
        done
      with End_of_file | Exit -> ()
    end
    else print_string (Rz_serve.Serve.session_lines db queries)
  in
  let queries =
    Arg.(value & pos_all string [] & info [] ~docv:"QUERY"
           ~doc:"IRRd-style queries, e.g. '!gAS65000' or '!iAS-FOO,1', or \
                 plain whois lookups of an ASN, set name or prefix. Reads \
                 stdin when none are given.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Answer IRRd-protocol queries and plain whois lookups against the \
             parsed database.")
    Term.(const run $ dir_arg $ queries)

(* ---------------- serve (persistent IRRd query service) ---------------- *)

let serve_cmd =
  let run obs dir seed snapshot port socket workers max_inflight
      query_timeout_ms read_timeout_ms journal journal_batch access_log
      access_log_sample connect queries =
    guarded @@ fun () ->
    match connect with
    | Some target ->
      (* loopback client mode: send the queries, print the raw reply *)
      let reply =
        try Rz_serve.Serve.client (Rz_serve.Serve.address_of_string target) queries
        with Unix.Unix_error (e, _, _) ->
          failwith
            (Printf.sprintf "cannot connect to %s: %s" target
               (Unix.error_message e))
      in
      print_string reply;
      flush stdout
    | None ->
      (* Counters drive the exit policy (hostile queries -> exit 2), so
         the registry is always on here, like stream and faultinject. *)
      Rpslyzer.Obs.enable ();
      let degraded =
        with_obs ~cmd:"serve" ~seed obs @@ fun () ->
        let world = load_or_synthesize ~seed ~snapshot dir in
        let journal_batches =
          match journal with
          | None -> []
          | Some path ->
            let text = read_file ~what:"journal" path in
            let ops, errors = Rz_synthirr.Nrtm.parse text in
            warn_rejected ~cmd:"serve" errors;
            (* chunk into batches of --journal-batch ops; each !u applies one *)
            let rec chunk acc cur n = function
              | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
              | op :: rest ->
                if n + 1 >= journal_batch then
                  chunk (List.rev (op :: cur) :: acc) [] 0 rest
                else chunk acc (op :: cur) (n + 1) rest
            in
            chunk [] [] 0 ops
        in
        let address =
          match (socket, port) with
          | Some path, _ -> Rz_serve.Serve.Socket path
          | None, Some p -> Rz_serve.Serve.Port p
          | None, None ->
            failwith "serve: pass --socket PATH or --port PORT (0 = ephemeral)"
        in
        let config =
          { Rz_serve.Serve.workers;
            max_inflight;
            query_timeout_ms;
            read_timeout_ms;
            max_line_bytes = Rz_serve.Serve.default_config.max_line_bytes }
        in
        let store = Rz_serve.Generation.init (Rz_irr.Db.ir world.db) in
        let alog =
          Option.map
            (fun path ->
              Rz_serve.Access_log.create ?sampling:access_log_sample path)
            access_log
        in
        Fun.protect
          ~finally:(fun () -> Option.iter Rz_serve.Access_log.close alog)
        @@ fun () ->
        let server =
          Rz_serve.Serve.start ~config ~journal:journal_batches ?access_log:alog
            store address
        in
        (match address with
         | Rz_serve.Serve.Port _ ->
           Printf.printf "listening on 127.0.0.1:%d (%d workers, %d pending journal batches)\n%!"
             (Rz_serve.Serve.port server) workers (List.length journal_batches)
         | Rz_serve.Serve.Socket path ->
           Printf.printf "listening on %s (%d workers, %d pending journal batches)\n%!"
             path workers (List.length journal_batches));
        (* Park until SIGTERM/SIGINT. The handler only flips a flag: the
           actual teardown (and the metrics finalizer in with_obs) runs
           on the main thread so shutdown stays clean. *)
        let stop_requested = Atomic.make false in
        let handler = Sys.Signal_handle (fun _ -> Atomic.set stop_requested true) in
        Sys.set_signal Sys.sigterm handler;
        Sys.set_signal Sys.sigint handler;
        while not (Atomic.get stop_requested) do
          Unix.sleepf 0.1
        done;
        Rz_serve.Serve.stop server;
        Printf.printf "stopped at generation %d (serial %d)\n%!"
          (Rz_serve.Generation.generation store)
          (Rz_serve.Generation.last_serial store);
        recovered ()
      in
      if degraded then exit 2
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "d"; "dir" ] ~docv:"DIR"
          ~doc:"World directory to serve; a small synthetic world is \
                generated in memory when omitted.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Synthetic-world seed.")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Listen on loopback TCP $(docv); 0 binds an ephemeral port \
                (printed on startup).")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv) (takes precedence \
                over $(b,--port)).")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains answering queries.")
  in
  let max_inflight =
    Arg.(
      value & opt int 64
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Queued sessions beyond which new connections are refused \
                with 'F server busy'.")
  in
  let query_timeout_ms =
    Arg.(
      value & opt int 1000
      & info [ "query-timeout-ms" ] ~docv:"MS"
          ~doc:"Per-query deadline; an answer that took longer is replaced \
                by 'F query deadline exceeded'. 0 disables.")
  in
  let read_timeout_ms =
    Arg.(
      value & opt int 10000
      & info [ "read-timeout-ms" ] ~docv:"MS"
          ~doc:"Per-read socket deadline; a session stalling mid-line past \
                it is dropped (slowloris guard).")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"NRTM-style journal (see $(b,Rz_synthirr.Nrtm)); queued in \
                batches that the $(b,!u) control query applies as live \
                copy-on-write generation swaps.")
  in
  let journal_batch =
    Arg.(
      value & opt int 16
      & info [ "journal-batch" ] ~docv:"N"
          ~doc:"Journal ops applied per $(b,!u) (default 16).")
  in
  let access_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Structured per-query access log: one JSON object per query \
             (ts, peer, query, response class, latency_ns, generation, \
             serial, rejected reason) appended to $(docv) from a bounded \
             writer queue; records that would block are dropped and \
             counted on obs.accesslog_dropped.")
  in
  let access_log_sample =
    Arg.(
      value
      & opt (some sampling_conv) None
      & info [ "access-log-sample" ] ~docv:"POLICY"
          ~doc:
            "Access-log sampling: $(b,all) (default), $(b,off), or \
             $(b,quota:N) (keep the first N records per response class) — \
             the rz_trace sampling dial applied to the access log.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:"Client mode: connect to a running server at $(docv) (a port \
                number, host:port, or Unix socket path), send the QUERY \
                arguments, print the raw protocol reply, and exit.")
  in
  let queries =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"QUERY"
          ~doc:"Queries to send in $(b,--connect) client mode.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent IRRd query service: concurrent client \
          sessions over live NRTM-updated database generations. Exits 0 \
          on clean SIGTERM shutdown, 2 when recovery guards fired \
          (hostile queries, shed sessions), 1 on hard failure.")
    Term.(
      const run $ obs_opts_term $ dir $ seed $ snapshot_arg
      $ port $ socket $ workers $ max_inflight $ query_timeout_ms
      $ read_timeout_ms $ journal $ journal_batch $ access_log
      $ access_log_sample $ connect $ queries)

(* ---------------- peval ---------------- *)

let peval_cmd =
  let run dir expr aggregate =
    guarded @@ fun () ->
    let db = Rz_ingest.Ingest.db_of_dumps (Rpslyzer.Pipeline.load_dumps dir) in
    match Rz_irr.Filter_eval.eval_string db expr with
    | Error e -> prerr_endline e; exit 1
    | Ok result ->
      if aggregate then
        List.iter
          (fun p -> print_endline (Rz_net.Prefix.to_string p))
          (Rz_irr.Filter_eval.to_prefix_list result)
      else
        List.iter
          (fun (p, op) ->
            Printf.printf "%s%s\n" (Rz_net.Prefix.to_string p)
              (Rz_net.Range_op.to_string op))
          result.prefixes;
      List.iter (Printf.eprintf "%% unresolved: %s\n") result.unresolved;
      if result.unresolved <> [] then exit 2
  in
  let expr =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILTER"
           ~doc:"RPSL filter expression, e.g. 'AS-FOO AND NOT AS65001'.")
  in
  let aggregate =
    Arg.(value & flag & info [ "A"; "aggregate" ] ~doc:"Aggregate adjacent prefixes.")
  in
  Cmd.v
    (Cmd.info "peval" ~doc:"Materialize a filter expression to its prefix set (IRRToolSet's peval).")
    Term.(const run $ dir_arg $ expr $ aggregate)

(* ---------------- lint ---------------- *)

let lint_cmd =
  let run dir errors_only fix =
    guarded @@ fun () ->
    let world = Rpslyzer.Pipeline.load_world dir in
    let diags = Rz_lint.Linter.lint ~rels:world.rels world.db in
    let diags =
      if errors_only then
        List.filter (fun (d : Rz_lint.Linter.diagnostic) -> d.severity = Rz_lint.Linter.Error) diags
      else diags
    in
    List.iter (fun d -> print_endline (Rz_lint.Linter.diagnostic_to_string d)) diags;
    Printf.printf "%% %d diagnostics\n" (List.length diags);
    if fix then begin
      let ir = Rz_irr.Db.ir world.db in
      Hashtbl.iter
        (fun asn _ ->
          match Rz_lint.Rewrite.suggest ~rels:world.rels world.db asn with
          | Some s ->
            Printf.printf "\n%% suggested rewrite for AS%d:\n" asn;
            List.iter
              (fun (c : Rz_lint.Rewrite.change) ->
                Printf.printf "-%s\n+%s\n  (%s)\n" c.before c.after c.reason)
              s.changes
          | None -> ())
        ir.Rz_ir.Ir.aut_nums
    end;
    if List.exists (fun (d : Rz_lint.Linter.diagnostic) -> d.severity = Rz_lint.Linter.Error) diags
    then exit 1
  in
  let errors_only =
    Arg.(value & flag & info [ "errors-only" ] ~doc:"Only report errors.")
  in
  let fix =
    Arg.(value & flag & info [ "fix" ] ~doc:"Print suggested policy rewrites.")
  in
  Cmd.v
    (Cmd.info "lint" ~doc:"Lint the RPSL objects for misuses and hygiene problems.")
    Term.(const run $ dir_arg $ errors_only $ fix)

(* ---------------- classify ---------------- *)

let classify_cmd =
  let run dir =
    guarded @@ fun () ->
    let world = Rpslyzer.Pipeline.load_world dir in
    let observed =
      let seen = Hashtbl.create 512 in
      List.iter
        (fun (dump : Rz_bgp.Table_dump.t) ->
          List.iter
            (fun route ->
              List.iter (fun asn -> Hashtbl.replace seen asn ())
                (Rz_bgp.Route.dedup_path route))
            dump.routes)
        world.table_dumps;
      Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare
    in
    let profiles = Rz_stats.Classify.classify_all ~rels:world.rels ~observed world.db in
    let hist = Rz_stats.Classify.histogram profiles in
    let total = List.length profiles in
    Rz_util.Table.print
      ~header:[ "style"; "ASes"; "share" ]
      (List.map
         (fun (style, count) ->
           [ Rz_stats.Classify.style_to_string style;
             string_of_int count;
             Rz_util.Table.pct (float_of_int count /. float_of_int (max 1 total)) ])
         hist)
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Classify BGP-visible ASes by RPSL usage style.")
    Term.(const run $ dir_arg)

(* ---------------- diff ---------------- *)

let diff_cmd =
  let run before_dir after_dir =
    guarded @@ fun () ->
    let load dir = Rz_ingest.Ingest.ingest (Rpslyzer.Pipeline.load_dumps dir) in
    let d = Rz_stats.Evolution.diff ~before:(load before_dir) ~after:(load after_dir) in
    print_endline (Rz_stats.Evolution.summary d);
    List.iter
      (fun asn -> Printf.printf "+ aut-num %s\n" (Rz_net.Asn.to_string asn))
      d.aut_nums_added;
    List.iter
      (fun asn -> Printf.printf "- aut-num %s\n" (Rz_net.Asn.to_string asn))
      d.aut_nums_removed;
    List.iter
      (fun (c : Rz_stats.Evolution.rule_change) ->
        Printf.printf "~ aut-num %s: %d -> %d rules\n" (Rz_net.Asn.to_string c.asn)
          c.before_rules c.after_rules)
      d.rules_changed
  in
  let before_dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BEFORE" ~doc:"Earlier world dir.")
  in
  let after_dir =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"AFTER" ~doc:"Later world dir.")
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"Diff two IRR snapshots (policy evolution).")
    Term.(const run $ before_dir $ after_dir)

(* ---------------- rpki ---------------- *)

let rpki_cmd =
  let run obs dir snapshot roa_file fault_rate fault_seed json_out golden =
    guarded @@ fun () ->
    (* Counters drive the exit policy (degraded ROA input -> exit 2), so
       the registry is always on here, like faultinject. *)
    Rpslyzer.Obs.enable ();
    let mismatches = ref [] in
    let degraded =
      with_obs ~cmd:"rpki" obs @@ fun () ->
      let world = Rpslyzer.Pipeline.load_world ?snapshot dir in
      let roa_path =
        match roa_file with
        | Some path -> path
        | None -> Filename.concat dir "roas.csv"
      in
      let text = read_file ~what:"ROAs" roa_path in
      let text =
        if fault_rate > 0. then begin
          let plan = Rz_fault.Fault.plan ~seed:fault_seed ~rate:fault_rate () in
          let corrupted, report = Rz_fault.Fault.corrupt_dump plan text in
          Printf.eprintf "rpki: injected %d faults into %s\n%!"
            (Rz_fault.Fault.total_faults report)
            roa_path;
          corrupted
        end
        else text
      in
      let parsed = Rz_rpki.Roa.parse_string text in
      let matrix = Rpslyzer.Pipeline.cross_validate world parsed.table in
      let module C = Rz_stats.Rpki_cross in
      let doc =
        Rpslyzer.Json.Obj
          [ ("roas",
             Rpslyzer.Json.Obj
               [ ("loaded", Rpslyzer.Json.Int parsed.loaded);
                 ("rejected", Rpslyzer.Json.Int parsed.n_rejected) ]);
            ("cross", C.to_json matrix) ]
      in
      if json_out then print_endline (Rpslyzer.Json.to_string ~indent:2 doc)
      else begin
        Printf.printf "ROAs: %d loaded, %d rejected from %s\n" parsed.loaded
          parsed.n_rejected roa_path;
        List.iteri
          (fun i (e : Rz_rpki.Roa.parse_error) ->
            if i < 5 then
              Printf.printf "  rejected line %d: %s (%s)\n" e.line e.reason
                e.text)
          parsed.rejected;
        Printf.printf "\n== RPSL verdict x RPKI origin-validation state ==\n";
        Rz_util.Table.print
          ~align:(Rz_util.Table.Left :: List.map (fun _ -> Rz_util.Table.Right) C.rpki_states)
          ~header:("rpsl \\ rpki" :: C.rpki_states)
          (C.to_rows matrix);
        let classified = C.classified matrix in
        Printf.printf
          "\nroutes: %d total, %d classified, %d excluded, %d without plain origin\n"
          (C.total matrix) classified
          (C.total matrix - classified)
          (C.n_no_origin matrix);
        Printf.printf "agreement: %d/%d classified routes (%s)\n"
          (C.agree matrix) classified
          (Rz_util.Table.pct
             (if classified = 0 then 0.
              else float_of_int (C.agree matrix) /. float_of_int classified));
        Printf.printf "RPSL-verified but RPKI-invalid: %d\n"
          (C.verified_but_rpki_invalid matrix);
        Printf.printf "RPSL-unrecorded but RPKI-valid: %d\n"
          (C.unrecorded_but_rpki_valid matrix)
      end;
      mismatches := golden_diff golden doc;
      recovered ()
    in
    exit_on_golden golden !mismatches;
    if degraded then exit 2
  in
  let roa_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "roa-file" ] ~docv:"FILE"
          ~doc:"ROA file to validate against (default: DIR/roas.csv).")
  in
  let fault_rate =
    Arg.(
      value & opt float 0.
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:"Corrupt the ROA file in memory with this per-entry \
                probability before parsing (hostile-input drill).")
  in
  let fault_seed =
    Arg.(value & opt int 42 & info [ "fault-seed" ] ~doc:"Fault-plan seed.")
  in
  let json_out =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the agreement matrix as JSON.")
  in
  let golden =
    Arg.(
      value
      & opt (some string) None
      & info [ "golden" ] ~docv:"FILE"
          ~doc:"Structurally compare this run's JSON document against the \
                baseline in $(docv); any difference is printed and the \
                command exits 1.")
  in
  Cmd.v
    (Cmd.info "rpki"
       ~doc:
         "Cross-validate RPSL verification against RFC 6811 origin \
          validation: classify every collector route by both systems and \
          print the per-(RPSL-verdict, RPKI-state) agreement matrix. \
          Exits 0 when clean, 1 on golden mismatch or hard failure, 2 \
          when ROA input was degraded (rejected entries or injected \
          faults).")
    Term.(
      const run $ obs_opts_term $ dir_arg $ snapshot_arg $ roa_file $ fault_rate
      $ fault_seed $ json_out $ golden)

(* ---------------- stream ---------------- *)

let stream_cmd =
  let run obs dir seed events window edit_rate journal_out replay json_out
      golden =
    guarded @@ fun () ->
    let module S = Rz_stream.Stream in
    let module E = Rz_routegen.Events in
    (* Counters drive the exit policy (degradation -> exit 2), so the
       registry is always on here, like faultinject and rpki. *)
    Rpslyzer.Obs.enable ();
    let mismatches = ref [] in
    let degraded =
      with_obs ~cmd:"stream" ~seed obs @@ fun () ->
      let world = load_or_synthesize ~seed ~snapshot:None dir in
      let base_routes =
        List.concat_map
          (fun (d : Rz_bgp.Table_dump.t) -> d.routes)
          world.Rpslyzer.Pipeline.table_dumps
      in
      let items =
        match replay with
        | Some path ->
          let text = read_file ~what:"journal" path in
          let items, errors = E.parse text in
          warn_rejected ~cmd:"stream" errors;
          items
        | None ->
          let view = S.view_of world.Rpslyzer.Pipeline.db base_routes in
          E.generate ~seed ~n:events ~edit_rate view
      in
      (match journal_out with
       | Some path -> write_file ~what:"journal" path (E.render items)
       | None -> ());
      let t =
        S.create ~window
          ~ir:(Rz_irr.Db.ir world.Rpslyzer.Pipeline.db)
          ~rels:world.Rpslyzer.Pipeline.rels ()
      in
      let stats = S.run t items in
      let doc = S.stats_to_json t stats in
      let degraded = stats.S.r_degraded || recovered () in
      if json_out then print_endline (Rpslyzer.Json.to_string ~indent:2 doc)
      else begin
        Printf.printf "== stream ==\n";
        Printf.printf "events: %d processed, %d applied, %d rejected\n"
          stats.S.r_processed stats.S.r_applied stats.S.r_rejected;
        Printf.printf "engine: %d generations, %d invalidations\n"
          (S.generations t) (S.invalidated t);
        Printf.printf "\n== windows ==\n";
        List.iter
          (fun (w : S.window) ->
            Printf.printf
              "  [%d] seq %d-%d: %dA/%dW/%dE rib=%d routes=%d hops: %s\n"
              w.S.w_index w.S.w_start_seq w.S.w_end_seq w.S.w_announce
              w.S.w_withdraw w.S.w_edit w.S.w_rib w.S.w_routes
              (String.concat ", "
                 (List.filter_map
                    (fun (label, n) ->
                      if n = 0 then None
                      else Some (Printf.sprintf "%s=%d" label n))
                    (Rz_verify.Aggregate.counts_classes w.S.w_hops))))
          (S.windows t);
        if degraded then
          print_endline "\nresult: DEGRADED (recovery paths fired; exit 2)"
        else print_endline "\nresult: CLEAN (exit 0)"
      end;
      mismatches := golden_diff golden doc;
      degraded
    in
    exit_on_golden golden !mismatches;
    if degraded then exit 2
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "d"; "dir" ] ~docv:"DIR"
          ~doc:"World directory to stream against; a small synthetic world \
                is generated in memory when omitted.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"World and feed seed.")
  in
  let events =
    Arg.(
      value & opt int 512
      & info [ "events" ] ~docv:"N" ~doc:"Number of feed events to generate.")
  in
  let window =
    Arg.(
      value & opt int 64
      & info [ "window" ] ~docv:"N"
          ~doc:"Events per windowed per-verdict aggregate.")
  in
  let edit_rate =
    Arg.(
      value & opt float 0.05
      & info [ "edit-rate" ] ~docv:"P"
          ~doc:"Per-event probability of a policy-object edit.")
  in
  let journal_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-out" ] ~docv:"FILE"
          ~doc:"Write the generated event journal to $(docv) for replay.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay a journal instead of generating events; malformed \
                lines are rejected (stream.journal_rejected) and the run \
                is marked degraded.")
  in
  let json_out =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the run summary as JSON.")
  in
  let golden =
    Arg.(
      value
      & opt (some string) None
      & info [ "golden" ] ~docv:"FILE"
          ~doc:"Structurally compare this run's whole JSON summary against \
                the baseline in $(docv); any difference is printed and the \
                command exits 1. A run is deterministic, so a baseline is \
                just a committed $(b,--json) dump.")
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Stream a live update feed (announce/withdraw/policy-edit events) \
          through the incremental verification service, one event at a \
          time: churn-safe cache invalidation, windowed per-verdict \
          aggregates. Exits 0 when clean, 1 on golden mismatch or hard \
          failure, 2 when the run degraded (rejected events, or any \
          recovery counter fired).")
    Term.(
      const run $ obs_opts_term $ dir $ seed $ events $ window $ edit_rate
      $ journal_out $ replay $ json_out $ golden)

(* ---------------- faultinject ---------------- *)

(* Walk every Path_regex filter of every lowered policy rule through the
   capped NFA compiler. Verification only compiles the regexes of hops it
   actually observes, so without this audit a pathological-regex bomb on an
   AS no collector route traverses would go unexercised. *)
let nfa_audit ir =
  Hashtbl.fold
    (fun _ (an : Rz_ir.Ir.aut_num) total ->
      let patterns = Rz_verify.Engine.rule_patterns (an.imports @ an.exports) in
      List.iter (fun regex -> ignore (Rz_aspath.Regex_nfa.compile regex)) patterns;
      total + List.length patterns)
    ir.Rz_ir.Ir.aut_nums 0

let faultinject_cmd =
  let run obs dir seed rate kinds =
    guarded @@ fun () ->
    (* Counters drive the exit policy, so the registry is always on here;
       --metrics additionally dumps the snapshot. *)
    Rpslyzer.Obs.enable ();
    (* the exit happens after with_obs returns, so the Fun.protect
       finalizer gets to write the metrics snapshot first *)
    let degraded =
      with_obs ~cmd:"faultinject" ~seed obs @@ fun () ->
      let kinds =
        match kinds with
        | [] -> Rz_fault.Fault.all_kinds
        | names ->
          List.map
            (fun n ->
              match Rz_fault.Fault.kind_of_name n with
              | Some k -> k
              | None -> failwith (Printf.sprintf "unknown fault kind %S" n))
            names
      in
      (* without DIR, the small world shares the corruption's seed *)
      let base = load_or_synthesize ~seed ~snapshot:None dir in
      let plan = Rz_fault.Fault.plan ~kinds ~seed ~rate () in
      let corrupted, report = Rz_fault.Fault.corrupt_dumps plan base.dumps in
      let db = Rz_ingest.Ingest.db_of_dumps corrupted in
      let world = { base with Rpslyzer.Pipeline.db; dumps = corrupted } in
      let n_regexes = nfa_audit (Rz_irr.Db.ir db) in
      (* The same audit for sets: verification flattens only the sets its
         routes reach, so flatten every one up front and let a set bomb
         nothing routes through still hit the bounds. *)
      Rz_irr.Db.warm_caches db;
      let agg, `Total total, `Excluded excluded = Rpslyzer.Pipeline.verify world in
      print_endline "== fault injection ==";
      List.iter print_endline (Rz_fault.Fault.report_lines report);
      Printf.printf "parse errors recorded: %d\n"
        (List.length (Rz_irr.Db.ir db).Rz_ir.Ir.errors);
      Printf.printf "regexes audited: %d\n" n_regexes;
      (match Rz_irr.Db.truncated_sets db with
       | [] -> ()
       | sets ->
         Printf.printf "truncated flattens: %s\n" (String.concat ", " sets));
      Printf.printf "\n== verify under corruption ==\n";
      Printf.printf "routes: %d total, %d excluded, %d hops\n" total excluded
        (Rz_verify.Aggregate.n_hops agg);
      let counts = recovery_counts () in
      print_endline "\n== recovery counters ==";
      List.iter (fun (name, n) -> Printf.printf "  %-22s %d\n" name n) counts;
      let degraded = List.exists (fun (_, n) -> n > 0) counts in
      if degraded then
        print_endline "\nresult: DEGRADED (recovery paths fired; exit 2)"
      else print_endline "\nresult: CLEAN (exit 0)";
      degraded
    in
    if degraded then exit 2
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "d"; "dir" ] ~docv:"DIR"
          ~doc:"World directory to corrupt; a small synthetic world is \
                generated in memory when omitted.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Fault-plan seed.") in
  let rate =
    Arg.(
      value & opt float 0.1
      & info [ "rate" ] ~docv:"P" ~doc:"Per-object corruption probability in [0,1].")
  in
  let kinds =
    Arg.(
      value
      & opt (list string) []
      & info [ "kinds" ] ~docv:"KIND,..."
          ~doc:"Comma-separated fault kinds to inject (default: all). See \
                $(b,rz_fault) for the kind names, e.g. \
                'byte-splice,as-set-deep-bomb'.")
  in
  Cmd.v
    (Cmd.info "faultinject"
       ~doc:
         "Corrupt the IRR dumps with a seeded fault plan, run the full \
          pipeline on the damage, and report every recovery path that \
          fired. Exits 0 when clean, 2 when the pipeline degraded \
          (keep-going), 1 on hard failure.")
    Term.(const run $ obs_opts_term $ dir $ seed $ rate $ kinds)

let () =
  let info =
    Cmd.info "rpslyzer" ~version:"1.0.0"
      ~doc:"Parse, characterize, and verify RPSL routing policies."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ gen_cmd; parse_cmd; stats_cmd; verify_cmd; explain_cmd; query_cmd;
            serve_cmd; peval_cmd; lint_cmd; classify_cmd; diff_cmd; rpki_cmd;
            stream_cmd; faultinject_cmd ]))
