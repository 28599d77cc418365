(* Quickstart: parse a snippet of RPSL, inspect the interpreted rules,
   and export the IR as JSON.

   Run with: dune exec examples/quickstart.exe *)

let rpsl =
  "aut-num: AS38639\n\
   as-name: HANABI\n\
   export: to AS4713 announce AS-HANABI\n\
   import: from AS4713 accept ANY\n\
   mp-import: afi any.unicast from AS13911 accept ANY AND NOT {0.0.0.0/0, ::/0}\n\
   \n\
   as-set: AS-HANABI\n\
   members: AS38639, AS64500\n\
   \n\
   route: 203.0.113.0/24\n\
   origin: AS38639\n"

let () =
  (* 1. Parse the text into the intermediate representation. *)
  let ir = Rpslyzer.parse_rpsl rpsl in
  print_endline "== Parsed objects ==";
  (match Rz_ir.Ir.find_aut_num ir 38639 with
   | Some an ->
     Printf.printf "aut-num %s (%s): %d imports, %d exports\n"
       (Rz_net.Asn.to_string an.asn) an.as_name (List.length an.imports)
       (List.length an.exports);
     List.iter
       (fun rule -> Printf.printf "  %s\n" (Rz_policy.Ast.rule_to_string rule))
       (an.imports @ an.exports)
   | None -> failwith "aut-num missing");

  (* 2. Build the queryable database and resolve the as-set. *)
  let db = Rpslyzer.db_of_rpsl rpsl in
  let members = Rz_irr.Db.flatten_as_set db "AS-HANABI" in
  Printf.printf "\nAS-HANABI flattens to: %s\n"
    (String.concat ", "
       (List.map Rz_net.Asn.to_string (Rz_irr.Db.Asn_set.elements members)));

  (* 3. Check a route against AS38639's export policy, with the
        diagnostic items `explain` prints. *)
  let rels = Rz_asrel.Rel_db.create () in
  let engine = Rz_verify.Engine.create db rels in
  let hop =
    Rz_verify.Engine.explain_hop engine ~direction:`Export ~subject:38639 ~remote:4713
      ~prefix:(Rz_net.Prefix.of_string_exn "203.0.113.0/24")
      ~path:[| 38639 |]
  in
  Printf.printf "\nexport check: %s\n" (Rz_verify.Report.hop_to_string hop);

  (* 4. Export the whole IR as JSON for external tools. *)
  print_endline "\n== IR as JSON (truncated) ==";
  let json = Rpslyzer.ir_to_json ~indent:2 ir in
  print_endline (String.sub json 0 (min 400 (String.length json)));
  print_endline "..."
