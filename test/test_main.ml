let () =
  Alcotest.run "rpslyzer"
    [ ("util", Suite_util.suite);
      ("intern", Suite_intern.suite);
      ("json", Suite_json.suite);
      ("net", Suite_net.suite);
      ("rpsl", Suite_rpsl.suite);
      ("aspath", Suite_aspath.suite);
      ("policy", Suite_policy.suite);
      ("ir", Suite_ir.suite);
      ("irr", Suite_irr.suite);
      ("asrel", Suite_asrel.suite);
      ("bgp", Suite_bgp.suite);
      ("verify", Suite_verify.suite);
      ("verify-advanced", Suite_verify_advanced.suite);
      ("topology", Suite_topology.suite);
      ("routegen", Suite_routegen.suite);
      ("synthirr", Suite_synthirr.suite);
      ("stats", Suite_stats.suite);
      ("obs", Suite_obs.suite);
      ("trace", Suite_trace.suite);
      ("pipeline", Suite_pipeline.suite);
      ("lint", Suite_lint.suite);
      ("classify", Suite_classify.suite);
      ("aggregate", Suite_aggregate.suite);
      ("property", Suite_property.suite);
      ("irrd", Suite_irrd.suite);
      ("actions", Suite_actions.suite);
      ("rpki", Suite_rpki.suite);
      ("inference", Suite_inference.suite);
      ("edge", Suite_edge.suite);
      ("fault", Suite_fault.suite);
      ("stream", Suite_stream.suite);
      ("serve", Suite_serve.suite);
      ("ingest", Suite_ingest.suite);
      ("accounting", Suite_accounting.suite) ]
