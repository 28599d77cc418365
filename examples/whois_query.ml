(* An in-memory whois-style query loop over a generated IRR — the query
   interface operators use against real IRRs (Appendix A shows whois
   transcripts). Each argument is answered by [Irrd_query.answer], the
   handler behind the [query] subcommand and the live server: a plain
   name (ASN, set name or prefix) is a RIPE-style lookup, and a
   [!]-query speaks the IRRd protocol, e.g. [!iAS1000:AS-CUST,1] for an
   as-set's flattened members or [!gAS1000] for an AS's prefixes.

   Run with: dune exec examples/whois_query.exe -- AS1007 '!iAS1007:AS-CUST,1' *)

let () =
  let world =
    Rpslyzer.Pipeline.build_synthetic
      ~topo_params:{ Rz_topology.Gen.default_params with n_mid = 40; n_stub = 150 }
      ()
  in
  let queries =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ ->
      (* default queries: the first AS that publishes its customer-cone
         set, its prefixes, the set direct and flattened, and one of its
         prefixes *)
      let ir = Rz_irr.Db.ir world.db in
      let owner =
        List.find
          (fun a ->
            Rz_ir.Ir.find_as_set ir (Rz_synthirr.Generate.cone_set_name a) <> None)
          (Array.to_list world.topo.ases)
      in
      let asn = Rz_net.Asn.to_string owner in
      let cone = Rz_synthirr.Generate.cone_set_name owner in
      [ asn; "!g" ^ asn; cone; "!i" ^ cone ^ ",1" ]
      @ (match Rz_topology.Gen.prefixes_of world.topo owner with
         | p :: _ -> [ Rz_net.Prefix.to_string p ]
         | [] -> [])
  in
  List.iter
    (fun query ->
      Printf.printf "%% query %s\n%s\n" query
        (Rz_irr.Irrd_query.render (Rz_irr.Irrd_query.answer world.db query)))
    queries
