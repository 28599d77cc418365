(* Appendix-C walkthrough: rebuild the paper's route verification example
   — prefix 103.162.114.0/23 with AS-path 3257 1299 6939 133840 56239
   141893 — from its published RPSL fragments and relationship facts, and
   print the per-hop report. The statuses match the appendix:

     BadExport   141893 -> 56239   (peering mismatches; origin's export
                                     is never uphill-safelisted)
     MehImport   141893 -> 56239   (only-provider policies)
     MehExport   56239 -> 133840   (filter miss; the appendix reports
                                     SpecUphill because its CAIDA cone
                                     snapshot excluded AS141893 from
                                     AS56239's cone despite classifying it
                                     as a customer — with self-consistent
                                     relationship data the same tier is
                                     reached one check earlier, as
                                     SpecExportSelf)
     MehImport   56239 -> 133840   (only-provider policies)
     MehExport   133840 -> 6939    (uphill)
     OkImport    133840 -> 6939    (from AS-ANY accept ANY)
     OkExport    6939 -> 1299      (cone as-set matches)
     OkImport    6939 -> 1299
     UnrecExport 1299 -> 3257      (unrecorded as-sets)
     MehImport   1299 -> 3257      (Tier-1 pair)

   Run with: dune exec examples/route_verification.exe *)

let rpsl =
  (* aut-num fragments quoted in the appendix *)
  "aut-num: AS141893\n\
   export: to AS58552 announce AS141893\n\
   export: to AS131755 announce AS141893\n\
   import: from AS58552 accept ANY\n\
   \n\
   aut-num: AS56239\n\
   export: to AS133840 announce AS56239\n\
   import: from AS55685 accept ANY\n\
   import: from AS133840 accept ANY\n\
   \n\
   aut-num: AS133840\n\
   import: from AS55685 accept ANY\n\
   export: to AS55685 announce AS133840\n\
   \n\
   aut-num: AS6939\n\
   import: from AS-ANY accept ANY\n\
   export: to AS-ANY announce AS-HURRICANE\n\
   \n\
   aut-num: AS1299\n\
   import: from AS6939 accept ANY\n\
   export: to AS3257 announce AS1299:AS-TWELVE99-CUSTOMER-V4 AND AS1299:AS-TWELVE99-PEER-V4\n\
   \n\
   aut-num: AS3257\n\
   import: from AS12 accept AS12\n\
   \n\
   as-set: AS-HURRICANE\n\
   members: AS6939, AS133840, AS56239, AS141893\n\
   \n\
   route: 103.162.114.0/23\n\
   origin: AS141893\n\
   \n\
   route: 27.100.0.0/24\n\
   origin: AS56239\n\
   \n\
   route: 184.104.0.0/15\n\
   origin: AS6939\n"

let relationships () =
  let rels = Rz_asrel.Rel_db.create () in
  (* CAIDA-style facts used by the appendix: 141893 is a customer of
     56239; 56239 a customer of 133840; 133840 a customer of 6939; 6939
     peers with 1299; 1299 and 3257 are Tier-1s. 137296 is 56239's only
     cone member. *)
  Rz_asrel.Rel_db.add_p2c rels ~provider:56239 ~customer:141893;
  Rz_asrel.Rel_db.add_p2c rels ~provider:56239 ~customer:137296;
  Rz_asrel.Rel_db.add_p2c rels ~provider:133840 ~customer:56239;
  Rz_asrel.Rel_db.add_p2c rels ~provider:6939 ~customer:133840;
  Rz_asrel.Rel_db.add_p2p rels 6939 1299;
  Rz_asrel.Rel_db.add_p2p rels 1299 3257;
  Rz_asrel.Rel_db.add_p2c rels ~provider:55685 ~customer:56239;
  Rz_asrel.Rel_db.add_p2c rels ~provider:55685 ~customer:133840;
  Rz_asrel.Rel_db.set_clique rels [ 1299; 3257 ];
  rels

let () =
  let db = Rpslyzer.db_of_rpsl ~source:"MIXED" rpsl in
  let engine = Rz_verify.Engine.create db (relationships ()) in
  let route =
    Rz_bgp.Route.make
      (Rz_net.Prefix.of_string_exn "103.162.114.0/23")
      [ 3257; 1299; 6939; 133840; 56239; 141893 ]
  in
  print_endline "Verifying 103.162.114.0/23 via 3257 1299 6939 133840 56239 141893:";
  print_newline ();
  match Rz_verify.Engine.explain_route engine route with
  | None -> print_endline "route excluded"
  | Some report ->
    List.iter
      (fun hop -> print_endline (Rz_verify.Report.hop_to_string hop))
      report.hops;
    print_newline ();
    (* Narrate the two interesting hops like the appendix does. *)
    let bad_export =
      List.find
        (fun (h : Rz_verify.Report.hop) -> h.direction = `Export && h.from_as = 141893)
        report.hops
    in
    Printf.printf
      "The export from AS141893 to AS56239 is %s: AS141893 only declares exports to \
       AS58552 and AS131755.\n"
      (Rz_verify.Status.to_string bad_export.status);
    let meh_import =
      List.find
        (fun (h : Rz_verify.Report.hop) -> h.direction = `Import && h.to_as = 56239)
        report.hops
    in
    Printf.printf
      "The import by AS56239 from AS141893 is %s: AS56239 only writes rules for its \
       providers, and AS141893 is its customer.\n"
      (Rz_verify.Status.to_string meh_import.status)
