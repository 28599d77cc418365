(** RPSLyzer — parse, interpret, characterize, and verify RPSL routing
    policies (OCaml reproduction of the IMC'24 system).

    This module is the public facade: it re-exports every subsystem under
    a stable name and provides {!Pipeline}, the end-to-end driver that the
    examples, CLI, and benchmark harness are built on. *)

(** {1 Subsystems} *)

module Util = Rz_util
module Json = Rz_json.Json
module Net = Rz_net
module Rpsl = Rz_rpsl
module Aspath = Rz_aspath
module Policy = Rz_policy
module Ir = Rz_ir
module Irr = Rz_irr
module Asrel = Rz_asrel
module Bgp = Rz_bgp
module Topology = Rz_topology
module Routegen = Rz_routegen
module Synthirr = Rz_synthirr
module Verify = Rz_verify
module Stats = Rz_stats
module Lint = Rz_lint
module Rpki = Rz_rpki
module Obs = Rz_obs.Obs
module Trace = Rz_trace.Trace
module Ingest = Rz_ingest
module Stream = Rz_stream
module Serve = Rz_serve

(** {1 End-to-end pipeline} *)

module Pipeline = struct
  (** A fully built evaluation world: synthetic topology, the RPSL text it
      publishes, the parsed/merged IRR database, ground-truth AS
      relationships, and collector dumps. *)
  type world = {
    topo : Rz_topology.Gen.t;
    synth : Rz_synthirr.Generate.world;
    db : Rz_irr.Db.t;
    rels : Rz_asrel.Rel_db.t;
    dumps : (string * string) list;  (** (IRR name, RPSL text) *)
    table_dumps : Rz_bgp.Table_dump.t list;
  }

  (** Build a synthetic world end-to-end: generate the topology, render it
      to RPSL across 13 IRRs, parse + merge those dumps back through the
      real parsing pipeline, and propagate BGP routes to collectors. *)
  let build_synthetic ?(topo_params = Rz_topology.Gen.default_params)
      ?(irr_config = Rz_synthirr.Config.default) ?(n_collector_mids = 10)
      ?(n_collectors = 2) () =
    let topo = Rz_topology.Gen.generate topo_params in
    let synth = Rz_synthirr.Generate.generate ~config:irr_config topo in
    let db = Rz_ingest.Ingest.db_of_dumps synth.dumps in
    let peers = Rz_routegen.Propagate.default_collector_peers topo ~n:n_collector_mids in
    let table_dumps = Rz_routegen.Propagate.collector_dumps topo ~n_collectors ~peers in
    { topo; synth; db; rels = topo.rels; dumps = synth.dumps; table_dumps }

  (** Every route of every collector dump, in dump order. *)
  let rib world =
    Array.concat
      (List.map (fun (d : Rz_bgp.Table_dump.t) -> Array.of_list d.routes) world.table_dumps)

  (** Verify every route of every collector dump, in prefix order
      ({!Rz_verify.Engine.verify_rib}); returns the aggregates behind
      Figures 2-6 plus the total number of routes examined and the
      number excluded (single-AS or AS_SET paths). *)
  let verify ?config world =
    Rz_obs.Obs.Span.with_ "verify" @@ fun () ->
    let engine = Rz_verify.Engine.create ?config world.db world.rels in
    let agg = Rz_verify.Aggregate.create () in
    let excluded = ref 0 and total = ref 0 in
    Rz_verify.Engine.verify_rib engine (rib world) (fun _ report ->
        incr total;
        match report with
        | Some report -> Rz_verify.Aggregate.add_route_report agg report
        | None -> incr excluded);
    (agg, `Total !total, `Excluded !excluded)

  let c_cross_routes = Rz_obs.Obs.Counter.make "rpki.cross.routes_total"
  let c_cross_no_origin = Rz_obs.Obs.Counter.make "rpki.cross.no_origin"
  let c_cross_verified_invalid =
    Rz_obs.Obs.Counter.make "rpki.cross.verified_rpki_invalid"
  let c_cross_unrecorded_valid =
    Rz_obs.Obs.Counter.make "rpki.cross.unrecorded_rpki_valid"

  (** Run RFC 6811 origin validation alongside RPSL verification over every
      collector route and tabulate the per-(RPSL-verdict x RPKI-state)
      agreement matrix — the cross-validation view contrasting the paper's
      registry-based verdicts with the deployed RPKI baseline. Routes whose
      AS-path ends in an AS_SET have no plain origin to validate and are
      tallied separately. *)
  let cross_validate ?config world roa_table =
    Rz_obs.Obs.Span.with_ "rpki-cross" @@ fun () ->
    let engine = Rz_verify.Engine.create ?config world.db world.rels in
    let matrix = Rz_stats.Rpki_cross.create () in
    Rz_verify.Engine.verify_rib engine (rib world) (fun route report ->
        Rz_obs.Obs.Counter.incr c_cross_routes;
        match Rz_bgp.Route.origin route with
        | None ->
          Rz_stats.Rpki_cross.add_no_origin matrix;
          Rz_obs.Obs.Counter.incr c_cross_no_origin
        | Some origin ->
          let state = Rz_rpki.Roa.validate roa_table route.Rz_bgp.Route.prefix origin in
          Rz_stats.Rpki_cross.add matrix ~rpsl:(Rz_stats.Rpki_cross.route_class report) state);
    Rz_obs.Obs.Counter.add c_cross_verified_invalid
      (Rz_stats.Rpki_cross.verified_but_rpki_invalid matrix);
    Rz_obs.Obs.Counter.add c_cross_unrecorded_valid
      (Rz_stats.Rpki_cross.unrecorded_but_rpki_valid matrix);
    matrix

  (** Section-4 characterization of the world's RPSL. *)
  let usage world = Rz_stats.Usage.compute ~dumps:world.dumps world.db

  (** Verify one route and render the Appendix-C style report. *)
  let explain_route ?config world route =
    let engine = Rz_verify.Engine.create ?config world.db world.rels in
    Option.map Rz_verify.Report.route_report_to_string
      (Rz_verify.Engine.verify_route engine route)

  (** {2 Traced explanation}

      The [explain] subcommand's engine: re-verify one route with
      decision-trace sampling forced on and pair every hop report with
      the provenance record the engine emitted for it. *)

  type explained_hop = {
    hop : Rz_verify.Report.hop;
    trace : Rz_trace.Trace.record option;
        (** [None] only if the record was evicted, which cannot happen
            for a single route within the default ring capacity *)
  }

  type explanation = {
    route : Rz_bgp.Route.t;
    hops : explained_hop list;  (** origin-side first, like the report *)
  }

  let explain_route_traced ?config world route =
    Rz_trace.Trace.with_sampling Rz_trace.Trace.All @@ fun () ->
    let engine = Rz_verify.Engine.create ?config world.db world.rels in
    match Rz_verify.Engine.verify_route engine route with
    | None -> None
    | Some report ->
      let records = Rz_trace.Trace.records () in
      let subject_of (hop : Rz_verify.Report.hop) =
        match hop.direction with `Export -> hop.from_as | `Import -> hop.to_as
      in
      let remote_of (hop : Rz_verify.Report.hop) =
        match hop.direction with `Export -> hop.to_as | `Import -> hop.from_as
      in
      let matches (hop : Rz_verify.Report.hop) (r : Rz_trace.Trace.record) =
        r.direction = (match hop.direction with `Export -> "export" | `Import -> "import")
        && r.subject = subject_of hop
        && r.remote = remote_of hop
      in
      (* Emission order equals the report's hop order (origin-side
         first), so hop i pairs with record i; the identity check guards
         against eviction skew and falls back to a search. *)
      let hops =
        List.mapi
          (fun i hop ->
            let trace =
              match List.nth_opt records i with
              | Some r when matches hop r -> Some r
              | _ -> List.find_opt (matches hop) records
            in
            { hop; trace })
          report.hops
      in
      Some { route; hops }

  let explanation_to_text e =
    let b = Buffer.create 512 in
    Buffer.add_string b (Printf.sprintf "route %s" (Rz_bgp.Route.to_line e.route));
    List.iter
      (fun { hop; trace } ->
        Buffer.add_char b '\n';
        Buffer.add_string b (Rz_verify.Report.hop_to_string hop);
        match trace with
        | None -> ()
        | Some r ->
          List.iter
            (fun line -> Buffer.add_string b ("\n    " ^ line))
            (Rz_trace.Trace.record_to_lines r))
      e.hops;
    Buffer.contents b

  let explanation_to_json e =
    let hop_json { hop; trace } =
      Rz_json.Json.Obj
        [ ("verb", Rz_json.Json.String (Rz_verify.Report.verb_of hop));
          ( "direction",
            Rz_json.Json.String
              (match hop.direction with `Export -> "export" | `Import -> "import") );
          ("from", Rz_json.Json.Int hop.from_as);
          ("to", Rz_json.Json.Int hop.to_as);
          ("status", Rz_json.Json.String (Rz_verify.Status.to_string hop.status));
          ("class", Rz_json.Json.String (Rz_verify.Status.class_label hop.status));
          ( "items",
            Rz_json.Json.List
              (List.map
                 (fun i -> Rz_json.Json.String (Rz_verify.Report.item_to_string i))
                 hop.items) );
          ( "trace",
            match trace with
            | Some r -> Rz_trace.Trace.record_to_json r
            | None -> Rz_json.Json.Null ) ]
    in
    Rz_json.Json.Obj
      [ ("route", Rz_json.Json.String (Rz_bgp.Route.to_line e.route));
        ("prefix", Rz_json.Json.String (Rz_net.Prefix.to_string e.route.prefix));
        ("excluded", Rz_json.Json.Bool false);
        ("hops", Rz_json.Json.List (List.map hop_json e.hops)) ]

  (** {2 On-disk layout}

      A world directory holds [<IRR>.db] RPSL dumps (one per IRR, named
      after {!Rz_irr.Db.priority_order}), [as-rel.txt] (CAIDA serial-1),
      and [<collector>.routes] table dumps. *)

  let save_world world dir =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iter
      (fun (irr, text) ->
        let oc = open_out (Filename.concat dir (irr ^ ".db")) in
        output_string oc text;
        close_out oc)
      world.dumps;
    Rz_asrel.Rel_db.save world.rels (Filename.concat dir "as-rel.txt");
    List.iter
      (fun (dump : Rz_bgp.Table_dump.t) ->
        Rz_bgp.Table_dump.save dump (Filename.concat dir (dump.collector ^ ".routes")))
      world.table_dumps

  let read_file path =
    let ic = open_in path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    text

  (** Load the RPSL dumps of a world directory, in priority order,
      skipping IRRs whose file is absent. *)
  let load_dumps dir =
    List.filter_map
      (fun irr ->
        let path = Filename.concat dir (irr ^ ".db") in
        if Sys.file_exists path then Some (irr, read_file path) else None)
      Rz_irr.Db.priority_order

  (** Load a previously saved world directory. Topology/persona ground
      truth is not persisted; the returned world carries empty synth
      metadata and is suitable for parsing, stats, and verification.
      [snapshot] names an IR snapshot cache file ({!Rz_ir.Ir_snapshot}):
      when present and built from exactly these dumps the parse is
      skipped entirely; otherwise the dumps are ingested and the
      snapshot is (re)written. [domains] is deprecated: any value other
      than 1 raises [Invalid_argument] (see {!Rz_ingest.Ingest.ingest}). *)
  let load_world ?snapshot ?domains dir =
    let dumps = load_dumps dir in
    let db = Rz_ingest.Ingest.db_of_dumps ?domains ?snapshot dumps in
    let rels =
      match Rz_asrel.Rel_db.load (Filename.concat dir "as-rel.txt") with
      | Ok rels -> rels
      | Error msg -> invalid_arg ("as-rel.txt: " ^ msg)
    in
    let table_dumps =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".routes")
      |> List.sort compare
      |> List.map (fun f ->
             let collector = Filename.chop_suffix f ".routes" in
             match Rz_bgp.Table_dump.load ~collector (Filename.concat dir f) with
             | Ok dump -> dump
             | Error msg -> invalid_arg (f ^ ": " ^ msg))
    in
    let topo = Rz_topology.Gen.generate { Rz_topology.Gen.default_params with n_tier1 = 0; n_mid = 0; n_stub = 0 } in
    let synth =
      { Rz_synthirr.Generate.topo;
        config = Rz_synthirr.Config.default;
        profiles = Hashtbl.create 1;
        dumps }
    in
    { topo; synth; db; rels; dumps; table_dumps }
end

(** {1 Convenience one-shots} *)

(** Parse RPSL text into the IR (single unnamed source). *)
let parse_rpsl ?(source = "INLINE") text = Rz_ingest.Ingest.ingest [ (source, text) ]

(** Parse RPSL text and build a queryable database. *)
let db_of_rpsl ?(source = "INLINE") text = Rz_ingest.Ingest.db_of_dumps [ (source, text) ]

(** Export an IR as JSON text. *)
let ir_to_json = Rz_ir.Ir_json.export_string
