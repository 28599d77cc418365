(* Tests for rz_irr: priority merge, as-set flattening (recursion, loops,
   depth), members-by-reference, route-set flattening, route queries. *)
module Db = Rz_irr.Db

let db_of text = Db.of_dumps [ ("TEST", text) ]
let p = Rz_net.Prefix.of_string_exn

let asn_set_elems s = Db.Asn_set.elements s

let test_flatten_direct () =
  let db = db_of "as-set: AS-X\nmembers: AS1, AS2\n" in
  Alcotest.(check (list int)) "members" [ 1; 2 ] (asn_set_elems (Db.flatten_as_set db "AS-X"))

let test_flatten_nested () =
  let db = db_of "as-set: AS-TOP\nmembers: AS1, AS-MID\n\nas-set: AS-MID\nmembers: AS2, AS-LEAF\n\nas-set: AS-LEAF\nmembers: AS3\n" in
  Alcotest.(check (list int)) "transitive" [ 1; 2; 3 ]
    (asn_set_elems (Db.flatten_as_set db "AS-TOP"));
  Alcotest.(check int) "depth" 3 (Db.as_set_depth db "AS-TOP");
  Alcotest.(check bool) "no loop" false (Db.as_set_has_loop db "AS-TOP")

let test_flatten_loop () =
  let db = db_of "as-set: AS-A\nmembers: AS1, AS-B\n\nas-set: AS-B\nmembers: AS2, AS-A\n" in
  Alcotest.(check (list int)) "loop members converge" [ 1; 2 ]
    (asn_set_elems (Db.flatten_as_set db "AS-A"));
  Alcotest.(check bool) "loop detected A" true (Db.as_set_has_loop db "AS-A");
  Alcotest.(check bool) "loop detected B" true (Db.as_set_has_loop db "AS-B")

let test_flatten_loop_reachable () =
  let db =
    db_of "as-set: AS-OUTER\nmembers: AS-A\n\nas-set: AS-A\nmembers: AS-B\n\nas-set: AS-B\nmembers: AS-A\n"
  in
  Alcotest.(check bool) "reaches loop" true (Db.as_set_has_loop db "AS-OUTER")

let test_flatten_unknown () =
  let db = db_of "as-set: AS-X\nmembers: AS1, AS-MISSING\n" in
  Alcotest.(check bool) "unknown set absent" false (Db.as_set_exists db "AS-MISSING");
  Alcotest.(check (list int)) "missing nested ignored" [ 1 ]
    (asn_set_elems (Db.flatten_as_set db "AS-X"));
  Alcotest.(check (list int)) "flatten unknown = empty" []
    (asn_set_elems (Db.flatten_as_set db "AS-NOPE"));
  Alcotest.(check int) "depth of unknown" 0 (Db.as_set_depth db "AS-NOPE")

let test_flatten_case_insensitive () =
  let db = db_of "as-set: AS-X\nmembers: as1, AS-y\n\nas-set: as-Y\nmembers: AS2\n" in
  Alcotest.(check (list int)) "case folded" [ 1; 2 ]
    (asn_set_elems (Db.flatten_as_set db "as-x"))

let test_mbrs_by_ref () =
  let text =
    "as-set: AS-COOP\nmbrs-by-ref: MNT-A\n\n\
     aut-num: AS10\nmember-of: AS-COOP\nmnt-by: MNT-A\n\n\
     aut-num: AS11\nmember-of: AS-COOP\nmnt-by: MNT-OTHER\n"
  in
  let db = db_of text in
  (* AS10's maintainer is authorized; AS11's is not *)
  Alcotest.(check (list int)) "authorized only" [ 10 ]
    (asn_set_elems (Db.flatten_as_set db "AS-COOP"))

let test_mbrs_by_ref_any () =
  let text =
    "as-set: AS-OPEN\nmbrs-by-ref: ANY\n\naut-num: AS10\nmember-of: AS-OPEN\nmnt-by: MNT-X\n"
  in
  let db = db_of text in
  Alcotest.(check (list int)) "ANY admits all" [ 10 ]
    (asn_set_elems (Db.flatten_as_set db "AS-OPEN"))

let test_asn_in_as_set () =
  let db = db_of "as-set: AS-X\nmembers: AS1, AS-Y\n\nas-set: AS-Y\nmembers: AS2\n" in
  Alcotest.(check bool) "direct" true (Db.asn_in_as_set db "AS-X" 1);
  Alcotest.(check bool) "nested" true (Db.asn_in_as_set db "AS-X" 2);
  Alcotest.(check bool) "absent" false (Db.asn_in_as_set db "AS-X" 3)

let test_route_queries () =
  let text =
    "route: 10.0.0.0/8\norigin: AS1\n\nroute: 10.1.0.0/16\norigin: AS2\n\nroute6: 2001:db8::/32\norigin: AS1\n"
  in
  let db = db_of text in
  Alcotest.(check bool) "AS1 has routes" true (Db.origin_has_routes db 1);
  Alcotest.(check bool) "AS3 has none" false (Db.origin_has_routes db 3);
  Alcotest.(check int) "AS1 prefixes" 2 (List.length (Db.origin_prefixes db 1));
  Alcotest.(check (list int)) "exact origins" [ 2 ] (Db.exact_origins db (p "10.1.0.0/16"));
  let covering = Db.covering_routes db (p "10.1.2.0/24") in
  Alcotest.(check int) "two covering" 2 (List.length covering);
  Alcotest.(check (list int)) "least specific first" [ 1; 2 ] (List.map snd covering)

let test_route_set_flatten () =
  let text =
    "route-set: RS-TOP\nmembers: 192.0.2.0/24, RS-SUB^+, AS5\n\n\
     route-set: RS-SUB\nmembers: 198.51.100.0/24\n\n\
     route: 203.0.113.0/24\norigin: AS5\n"
  in
  let db = db_of text in
  let members = Db.flatten_route_set db "RS-TOP" in
  Alcotest.(check int) "three flattened" 3 (List.length members);
  (* the ^+ on RS-SUB applies to its members *)
  Alcotest.(check bool) "nested carries op" true
    (List.exists
       (fun (pfx, op) ->
         Rz_net.Prefix.equal pfx (p "198.51.100.0/24") && op = Rz_net.Range_op.Plus)
       members);
  Alcotest.(check bool) "asn member resolved" true
    (List.exists (fun (pfx, _) -> Rz_net.Prefix.equal pfx (p "203.0.113.0/24")) members)

let test_route_set_loop () =
  let db = db_of "route-set: RS-A\nmembers: RS-B\n\nroute-set: RS-B\nmembers: RS-A, 10.0.0.0/8\n" in
  let members = Db.flatten_route_set db "RS-A" in
  Alcotest.(check int) "loop converges" 1 (List.length members)

let test_route_set_with_as_set_member () =
  let text =
    "route-set: RS-X\nmembers: AS-GROUP\n\nas-set: AS-GROUP\nmembers: AS7\n\nroute: 10.7.0.0/16\norigin: AS7\n"
  in
  let db = db_of text in
  Alcotest.(check bool) "as-set member expands to prefixes" true
    (List.exists
       (fun (pfx, _) -> Rz_net.Prefix.equal pfx (p "10.7.0.0/16"))
       (Db.flatten_route_set db "RS-X"))

let test_route_set_member_of () =
  let text =
    "route-set: RS-COOP\nmbrs-by-ref: MNT-A\n\n\
     route: 192.0.2.0/24\norigin: AS1\nmember-of: RS-COOP\nmnt-by: MNT-A\n"
  in
  let db = db_of text in
  Alcotest.(check bool) "indirect route member" true
    (List.exists
       (fun (pfx, _) -> Rz_net.Prefix.equal pfx (p "192.0.2.0/24"))
       (Db.flatten_route_set db "RS-COOP"))

let test_of_dumps_priority () =
  let db =
    Db.of_dumps
      [ ("HIGH", "aut-num: AS1\nas-name: FIRST\n"); ("LOW", "aut-num: AS1\nas-name: SECOND\n") ]
  in
  match Db.find_aut_num db 1 with
  | Some an -> Alcotest.(check string) "priority" "FIRST" an.as_name
  | None -> Alcotest.fail "missing"

let test_priority_order_matches_synthirr () =
  Alcotest.(check (list string)) "paper's 13 IRRs" Rz_synthirr.Generate.irr_names
    Db.priority_order

(* ---------------- filter materialization (peval) ---------------- *)

let peval_fixture =
  "as-set: AS-GROUP\nmembers: AS1, AS2\n\n\
   route-set: RS-STATIC\nmembers: 203.0.113.0/24^+\n\n\
   filter-set: FLTR-NETS\nfilter: AS1 OR RS-STATIC\n\n\
   route: 192.0.2.0/24\norigin: AS1\n\n\
   route: 198.51.100.0/24\norigin: AS2\n\n\
   route: 198.51.101.0/24\norigin: AS2\n"

let peval text =
  let db = db_of peval_fixture in
  match Rz_irr.Filter_eval.eval_string db text with
  | Ok result -> result
  | Error e -> Alcotest.fail e

let term_strings (r : Rz_irr.Filter_eval.result) =
  List.map
    (fun (pfx, op) -> Rz_net.Prefix.to_string pfx ^ Rz_net.Range_op.to_string op)
    r.prefixes

let test_peval_asn () =
  Alcotest.(check (list string)) "origin prefixes" [ "192.0.2.0/24" ]
    (term_strings (peval "AS1"))

let test_peval_as_set_union () =
  Alcotest.(check (list string)) "flattened set"
    [ "192.0.2.0/24"; "198.51.100.0/24"; "198.51.101.0/24" ]
    (term_strings (peval "AS-GROUP"))

let test_peval_difference () =
  Alcotest.(check (list string)) "AND NOT"
    [ "198.51.100.0/24"; "198.51.101.0/24" ]
    (term_strings (peval "AS-GROUP AND NOT AS1"))

let test_peval_intersection () =
  Alcotest.(check (list string)) "AND" [ "192.0.2.0/24" ]
    (term_strings (peval "AS-GROUP AND AS1"))

let test_peval_route_set_and_filter_set () =
  Alcotest.(check (list string)) "route-set op kept" [ "203.0.113.0/24^+" ]
    (term_strings (peval "RS-STATIC"));
  Alcotest.(check (list string)) "filter-set recursion"
    [ "192.0.2.0/24"; "203.0.113.0/24^+" ]
    (term_strings (peval "FLTR-NETS"))

let test_peval_unresolved () =
  let r = peval "AS1 OR <^AS1$>" in
  Alcotest.(check (list string)) "set part kept" [ "192.0.2.0/24" ] (term_strings r);
  Alcotest.(check int) "regex reported" 1 (List.length r.unresolved);
  let r2 = peval "ANY" in
  Alcotest.(check int) "ANY unresolved" 1 (List.length r2.unresolved);
  Alcotest.(check (list string)) "nothing materialized" [] (term_strings r2)

let test_peval_prefix_list_aggregates () =
  let r = peval "AS-GROUP" in
  Alcotest.(check (list string)) "aggregated bare prefixes"
    [ "192.0.2.0/24"; "198.51.100.0/23" ]
    (List.map Rz_net.Prefix.to_string (Rz_irr.Filter_eval.to_prefix_list r))

let flatten_memo_consistent =
  QCheck.Test.make ~name:"flatten is deterministic across calls" ~count:50
    (QCheck.make (QCheck.Gen.int_range 1 10000))
    (fun seed ->
      let rng = Rz_util.Splitmix.create seed in
      (* random small set graph *)
      let n = 6 in
      let buf = Buffer.create 256 in
      for i = 0 to n - 1 do
        Buffer.add_string buf (Printf.sprintf "as-set: AS-S%d\nmembers: AS%d" i (100 + i));
        for j = 0 to n - 1 do
          if i <> j && Rz_util.Splitmix.chance rng 0.3 then
            Buffer.add_string buf (Printf.sprintf ", AS-S%d" j)
        done;
        Buffer.add_string buf "\n\n"
      done;
      let db = db_of (Buffer.contents buf) in
      let first = asn_set_elems (Db.flatten_as_set db "AS-S0") in
      let second = asn_set_elems (Db.flatten_as_set db "AS-S0") in
      first = second && List.mem 100 first)

(* The memo-free oracle for as-set flattening: a naive recursive
   expansion with a visited set over canonical names, read off the
   generated graph rather than the lowered IR. Graphs stay small (7
   sets, so far fewer than [Db.max_flatten_work] visits on any path and
   nesting far under [Db.max_flatten_depth]): past those bounds the
   memoized answers depend on query order. *)
let flatten_matches_naive =
  QCheck.Test.make ~name:"flatten = naive recursive expansion" ~count:200
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 1 100000))
    (fun seed ->
      let rng = Rz_util.Splitmix.create seed in
      let pick n = Rz_util.Splitmix.int rng n in
      let n = 7 in
      let name i = Printf.sprintf "AS-S%d" i in
      (* referenced by a random-case spelling, self-loops allowed, plus
         a dangling reference to a set that is never defined *)
      let spell i =
        if Rz_util.Splitmix.chance rng 0.3 then String.lowercase_ascii (name i) else name i
      in
      let graph =
        List.init n (fun i ->
            let asns = List.init (pick 3) (fun _ -> 100 + pick 20) in
            let sets =
              List.filter_map
                (fun j -> if Rz_util.Splitmix.chance rng 0.3 then Some (spell j) else None)
                (List.init n Fun.id)
              @ if Rz_util.Splitmix.chance rng 0.1 then [ "AS-MISSING" ] else []
            in
            (name i, asns, sets))
      in
      let text =
        String.concat ""
          (List.map
             (fun (nm, asns, sets) ->
               Printf.sprintf "as-set: %s\nmembers: %s\n\n" nm
                 (String.concat ", " (List.map (Printf.sprintf "AS%d") asns @ sets)))
             graph)
      in
      let canon = Rz_rpsl.Set_name.canonical in
      let defs = Hashtbl.create n in
      List.iter (fun (nm, asns, sets) -> Hashtbl.replace defs (canon nm) (asns, sets)) graph;
      let naive root =
        let visited = Hashtbl.create n in
        let rec go nm acc =
          let key = canon nm in
          if Hashtbl.mem visited key then acc
          else begin
            Hashtbl.add visited key ();
            match Hashtbl.find_opt defs key with
            | None -> acc
            | Some (asns, sets) -> List.fold_left (fun acc c -> go c acc) (asns @ acc) sets
          end
        in
        List.sort_uniq compare (go root [])
      in
      let db = db_of text in
      (* a random query order, so later queries meet memoized children *)
      let order =
        List.map snd (List.sort compare (List.init n (fun i -> (pick 1000, name i))))
      in
      List.for_all
        (fun nm ->
          asn_set_elems (Db.flatten_as_set db nm) = naive nm
          && not (Db.flatten_truncated db nm))
        order)

(* Random set graphs with cycles, self-references, range operators on
   set references and as-sets inside route-sets. Every set's answers
   must be those of a fresh database asked for that set first, however
   the sets were asked before: in a shuffled order, or after
   [warm_caches]. *)
let answers_order_independent =
  QCheck.Test.make ~name:"answers do not depend on query order" ~count:100
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 1 100000))
    (fun seed ->
      let rng = Rz_util.Splitmix.create seed in
      let pick n = Rz_util.Splitmix.int rng n in
      let n = 6 in
      let op () = [| ""; ""; "^+"; "^-"; "^24"; "^20-28" |].(pick 6) in
      let refs prefix =
        List.filter_map
          (fun j ->
            if Rz_util.Splitmix.chance rng 0.3 then Some (Printf.sprintf "%s%d" prefix j)
            else None)
          (List.init n Fun.id)
      in
      let buf = Buffer.create 1024 in
      for i = 0 to n - 1 do
        Buffer.add_string buf
          (Printf.sprintf "as-set: AS-S%d\nmembers: %s\n\n" i
             (String.concat ", " (Printf.sprintf "AS%d" (100 + pick n) :: refs "AS-S")));
        let members =
          Printf.sprintf "10.%d.0.0/16%s" i (op ())
          :: Printf.sprintf "AS%d%s" (100 + pick n) (op ())
          :: List.map (fun s -> s ^ op ()) (refs "RS-R" @ refs "AS-S")
        in
        Buffer.add_string buf
          (Printf.sprintf "route-set: RS-R%d\nmembers: %s\n\n" i (String.concat ", " members));
        Buffer.add_string buf
          (Printf.sprintf "route: 192.%d.0.0/16\norigin: AS%d\n\n" (pick 4) (100 + i))
      done;
      let text = Buffer.contents buf in
      let sets = List.init n (Printf.sprintf "AS-S%d") @ List.init n (Printf.sprintf "RS-R%d") in
      let answer db (name, kind) =
        match kind with
        | 0 -> `Asns (asn_set_elems (Db.flatten_as_set db name))
        | 1 -> `Routes (List.sort_uniq compare (Db.flatten_route_set db name))
        | 2 -> `Depth (Db.as_set_depth db name)
        | _ -> `Loop (Db.as_set_has_loop db name)
      in
      let queries = List.concat_map (fun s -> List.init 4 (fun k -> (s, k))) sets in
      let first = List.map (fun q -> (q, answer (db_of text) q)) queries in
      let check label db =
        let order = Array.of_list queries in
        Rz_util.Splitmix.shuffle rng order;
        Array.iter
          (fun ((name, kind) as q) ->
            if answer db q <> List.assoc q first then
              QCheck.Test.fail_reportf "%s: answer %d of %s differs from a fresh database's"
                label kind name)
          order
      in
      check "shuffled" (db_of text);
      let warm = db_of text in
      Db.warm_caches warm;
      check "warmed" warm;
      true)

(* ---- in-place patching ---- *)

(* Every answer [db] gives for these sets, origins and prefixes, the sets
   asked in list order. *)
let answers db ~sets ~origins ~prefixes =
  ( List.sort compare
      (List.map
         (fun n ->
           ( n,
             asn_set_elems (Db.flatten_as_set db n),
             Db.flatten_route_set db n,
             Db.as_set_depth db n,
             Db.as_set_has_loop db n ))
         sets),
    Db.truncated_sets db,
    List.map (fun o -> (Db.origin_prefixes db o, Db.origin_has_routes db o)) origins,
    List.map (fun q -> (Db.covering_routes db q, Db.exact_origins db q)) prefixes )

let same_as_build db ~sets ~origins ~prefixes =
  let patched = answers db ~sets ~origins ~prefixes in
  (* memoized answers must not depend on the order sets are asked in *)
  patched
  = answers (Db.build (Rz_ir.Ir.copy (Db.ir db))) ~sets:(List.rev sets) ~origins ~prefixes

let add_route db prefix origin =
  Rz_ir.Ir.add_route (Db.ir db) ~prefix ~origin ~member_of:[] ~mnt_by:[] ~source:"TEST";
  Db.patch db [ Db.Edit_route (prefix, origin) ]

let del_route db prefix origin =
  ignore (Rz_ir.Ir.remove_route (Db.ir db) ~prefix ~origin);
  Db.patch db [ Db.Edit_route (prefix, origin) ]

let test_patch_route_order () =
  let db =
    db_of
      "route: 10.0.0.0/8\norigin: AS1\n\nroute: 10.0.0.0/8\norigin: AS2\n\n\
       route: 10.1.0.0/16\norigin: AS1\n"
  in
  let check label =
    Alcotest.(check bool) label true
      (same_as_build db ~sets:[] ~origins:[ 1; 2; 3 ]
         ~prefixes:[ p "10.0.0.0/8"; p "10.1.0.0/16"; p "10.1.2.0/24" ])
  in
  add_route db (p "10.0.0.0/8") 3;
  check "added behind the existing bindings";
  add_route db (p "10.1.2.0/24") 2;
  check "added under a new prefix";
  del_route db (p "10.0.0.0/8") 1;
  check "removed";
  add_route db (p "10.0.0.0/8") 1;
  check "re-added as the newest";
  Alcotest.(check (list int)) "oldest route object first" [ 2; 3; 1 ]
    (Db.exact_origins db (p "10.0.0.0/8"));
  del_route db (p "10.1.0.0/16") 1;
  del_route db (p "10.0.0.0/8") 1;
  check "an origin's last route object removed";
  Alcotest.(check bool) "origin gone" false (Db.origin_has_routes db 1)

let test_patch_below_cycle () =
  (* AS-A and RS-A reach the cycles AS-X/AS-Y and RS-X/RS-Y *)
  let db =
    db_of
      "as-set: AS-A\nmembers: AS-Y\n\nas-set: AS-X\nmembers: AS1, AS-Y\n\n\
       as-set: AS-Y\nmembers: AS2, AS-X\n\n\
       route-set: RS-A\nmembers: RS-Y, AS7\n\n\
       route-set: RS-X\nmembers: 10.0.0.0/8, RS-Y\n\n\
       route-set: RS-Y\nmembers: 10.1.0.0/16, RS-X\n"
  in
  let sets = [ "AS-A"; "AS-X"; "AS-Y"; "RS-A"; "RS-X"; "RS-Y" ] in
  let check label =
    Alcotest.(check bool) label true (same_as_build db ~sets ~origins:[ 7 ] ~prefixes:[])
  in
  check "as built";
  let ir = Db.ir db in
  let a = Option.get (Rz_ir.Ir.find_as_set ir "AS-A") in
  Hashtbl.replace ir.Rz_ir.Ir.as_sets "AS-A" { a with member_asns = 3 :: a.member_asns };
  Db.patch db [ Db.Edit_set "AS-A" ];
  check "after an as-set edit above a cycle";
  add_route db (p "192.0.2.0/24") 7;
  check "after a route edit read above a cycle"

let test_patch_member_of () =
  let db =
    db_of
      "as-set: AS-COOP\nmbrs-by-ref: MNT-A\n\n\
       aut-num: AS10\nmember-of: AS-COOP\nmnt-by: MNT-A\n\n\
       aut-num: AS11\nmnt-by: MNT-A\n"
  in
  Alcotest.(check (list int)) "before" [ 10 ] (asn_set_elems (Db.flatten_as_set db "AS-COOP"));
  let ir = Db.ir db in
  let an = Option.get (Rz_ir.Ir.find_aut_num ir 11) in
  Hashtbl.replace ir.Rz_ir.Ir.aut_nums 11 { an with member_of = [ "AS-COOP" ] };
  Db.patch db [ Db.Edit_aut_num 11; Db.Edit_set "AS-COOP" ];
  Alcotest.(check (list int)) "claim added" [ 10; 11 ]
    (asn_set_elems (Db.flatten_as_set db "AS-COOP"));
  let an = Option.get (Rz_ir.Ir.find_aut_num ir 10) in
  Hashtbl.replace ir.Rz_ir.Ir.aut_nums 10 { an with member_of = [] };
  Db.patch db [ Db.Edit_aut_num 10; Db.Edit_set "AS-COOP" ];
  Alcotest.(check (list int)) "claim dropped" [ 11 ]
    (asn_set_elems (Db.flatten_as_set db "AS-COOP"));
  (* the set reported before the aut-num that claims it *)
  Hashtbl.replace ir.Rz_ir.Ir.aut_nums 10 an;
  Db.patch db [ Db.Edit_set "AS-COOP"; Db.Edit_aut_num 10 ];
  Alcotest.(check (list int)) "claim restored, edits in either order" [ 10; 11 ]
    (asn_set_elems (Db.flatten_as_set db "AS-COOP"))

(* A root past the work bound: AS-ROOT names AS-MID (which names
   AS-LEAF) and [Db.max_flatten_work] flat as-sets, so a cold flatten
   from it reaches more distinct sets than the bound allows, while one
   from any other set stays far under it; RS-ROOT is its route-set
   twin, and RS-VIA reads AS-ROOT, so it is flagged with it. Where a
   bound is hit, the answer depends on which sets are already memoized,
   under [build] too; a patched database must agree with [build] on
   every other set, and on the roots answer no member they lack and
   flag them only because a cold flatten hits the bound. *)
let test_patch_past_work_cap () =
  let flat = List.init Db.max_flatten_work Fun.id in
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun i ->
      Buffer.add_string buf
        (Printf.sprintf
           "as-set: AS-F%d\nmembers: AS%d\n\nroute-set: RS-F%d\nmembers: 10.%d.%d.0/24\n\n" i
           (1000 + i) i (i / 256) (i mod 256)))
    flat;
  (* one [members] line per set: a single line would pass the reader's
     line-length bound *)
  let root cls =
    Printf.sprintf "%s-ROOT\nmembers: %s-MID\n%s\n" cls cls
      (String.concat "" (List.map (Printf.sprintf "members: %s-F%d\n" cls) flat))
  in
  Buffer.add_string buf
    ("as-set: " ^ root "AS" ^ "route-set: " ^ root "RS"
     ^ "as-set: AS-MID\nmembers: AS1, AS-LEAF\n\nas-set: AS-LEAF\nmembers: AS2\n\n\
        route-set: RS-MID\nmembers: 192.0.2.0/24, RS-LEAF\n\n\
        route-set: RS-LEAF\nmembers: 198.51.100.0/24\n\n\
        route-set: RS-VIA\nmembers: AS-ROOT\n");
  let db = db_of (Buffer.contents buf) in
  let ir = Db.ir db in
  let roots = [ "AS-ROOT"; "RS-ROOT"; "RS-VIA" ] in
  let sets =
    roots @ [ "AS-MID"; "AS-LEAF"; "RS-MID"; "RS-LEAF" ]
    @ List.concat_map (fun i -> [ Printf.sprintf "AS-F%d" i; Printf.sprintf "RS-F%d" i ]) flat
  in
  let answer db n =
    ( asn_set_elems (Db.flatten_as_set db n),
      Db.flatten_route_set db n,
      Db.as_set_depth db n,
      Db.as_set_has_loop db n )
  in
  (* every member the set has: a visited-set walk, no bounds *)
  let members n =
    let seen = Hashtbl.create 64 and asns = ref [] and prefixes = ref [] in
    let rec go n =
      if not (Hashtbl.mem seen n) then begin
        Hashtbl.replace seen n ();
        Option.iter
          (fun (s : Rz_ir.Ir.as_set) ->
            asns := s.member_asns @ !asns;
            List.iter go s.member_sets)
          (Rz_ir.Ir.find_as_set ir n);
        Option.iter
          (fun (s : Rz_ir.Ir.route_set) ->
            List.iter
              (function
                | Rz_ir.Ir.Rs_prefix (q, op) -> prefixes := (q, op) :: !prefixes
                | Rz_ir.Ir.Rs_set (c, _) -> go c
                | Rz_ir.Ir.Rs_asn _ -> ())
              s.members)
          (Rz_ir.Ir.find_route_set ir n)
      end
    in
    go n;
    (List.sort_uniq compare !asns, List.sort_uniq compare !prefixes)
  in
  let capped_cold n =
    let fresh = Db.build (Rz_ir.Ir.copy ir) in
    ignore (answer fresh n);
    Db.flatten_truncated fresh n
  in
  let subset a b =
    let h = Hashtbl.create 64 in
    List.iter (fun x -> Hashtbl.replace h x ()) b;
    List.for_all (Hashtbl.mem h) a
  in
  let check label =
    let fresh = Db.build (Rz_ir.Ir.copy ir) in
    List.iter
      (fun n ->
        let ((asns, rs, _, _) as got) = answer db n in
        let expected = answer fresh n in
        let all_asns, all_prefixes = members n in
        if List.mem n roots then begin
          Alcotest.(check bool) (label ^ ": no extra ASN in " ^ n) true (subset asns all_asns);
          Alcotest.(check bool)
            (label ^ ": no extra prefix in " ^ n)
            true
            (subset (List.sort_uniq compare rs) all_prefixes)
        end
        else Alcotest.(check bool) (label ^ ": as built, " ^ n) true (got = expected))
      sets;
    Alcotest.(check bool) (label ^ ": only roots flagged") true
      (subset (Db.truncated_sets db) roots)
  in
  Alcotest.(check (list bool)) "only the roots hit the bound cold"
    [ true; true; true; false; false ]
    (List.map capped_cold [ "AS-ROOT"; "RS-ROOT"; "RS-VIA"; "AS-MID"; "RS-MID" ]);
  check "as built";
  let a = Option.get (Rz_ir.Ir.find_as_set ir "AS-LEAF") in
  Hashtbl.replace ir.Rz_ir.Ir.as_sets "AS-LEAF" { a with member_asns = 7777 :: a.member_asns };
  let r = Option.get (Rz_ir.Ir.find_route_set ir "RS-LEAF") in
  Hashtbl.replace ir.Rz_ir.Ir.route_sets "RS-LEAF"
    { r with members = Rz_ir.Ir.Rs_prefix (p "203.0.113.0/24", Rz_net.Range_op.None_) :: r.members };
  Db.patch db [ Db.Edit_set "AS-LEAF"; Db.Edit_set "RS-LEAF" ];
  check "after edits below the roots";
  Alcotest.(check bool) "edit seen above it" true
    (Db.asn_in_as_set db "AS-MID" 7777
     && List.mem_assoc (p "203.0.113.0/24") (Db.flatten_route_set db "RS-MID"));
  Hashtbl.replace ir.Rz_ir.Ir.as_sets "AS-LEAF" a;
  Hashtbl.replace ir.Rz_ir.Ir.route_sets "RS-LEAF" r;
  Db.patch db [ Db.Edit_set "RS-LEAF"; Db.Edit_set "AS-LEAF" ];
  check "after reverting them"

(* Random set graphs, cycles included, under random member, set-edge
   and route-object edits. *)
let patch_random_graphs =
  QCheck.Test.make ~name:"patch == build on random set graphs" ~count:100
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 1 100000))
    (fun seed ->
      let rng = Rz_util.Splitmix.create seed in
      let pick n = Rz_util.Splitmix.int rng n in
      let n = 5 in
      let buf = Buffer.create 512 in
      for i = 0 to n - 1 do
        Buffer.add_string buf (Printf.sprintf "as-set: AS-S%d\nmembers: AS%d" i (100 + i));
        for j = 0 to n - 1 do
          if Rz_util.Splitmix.chance rng 0.3 then
            Buffer.add_string buf (Printf.sprintf ", AS-S%d" j)
        done;
        Buffer.add_string buf "\n\n";
        Buffer.add_string buf
          (Printf.sprintf "route-set: RS-R%d\nmembers: AS%d, AS-S%d" i (100 + pick n) (pick n));
        for j = 0 to n - 1 do
          if Rz_util.Splitmix.chance rng 0.3 then
            Buffer.add_string buf (Printf.sprintf ", RS-R%d" j)
        done;
        Buffer.add_string buf
          (Printf.sprintf "\n\nroute: 10.%d.0.0/16\norigin: AS%d\n\n" i (100 + i))
      done;
      let db = db_of (Buffer.contents buf) in
      let ir = Db.ir db in
      let sets =
        List.init n (Printf.sprintf "AS-S%d") @ List.init n (Printf.sprintf "RS-R%d")
      in
      let origins = List.init n (fun i -> 100 + i) in
      let prefixes =
        List.concat
          (List.init n (fun i ->
               [ p (Printf.sprintf "10.%d.0.0/16" i); p (Printf.sprintf "10.%d.1.0/24" i) ]))
      in
      let toggle x l = if List.mem x l then List.filter (( <> ) x) l else l @ [ x ] in
      let ok = ref (same_as_build db ~sets ~origins ~prefixes) in
      for _ = 1 to 8 do
        let i = pick n and j = pick n in
        (match pick 5 with
         | 0 ->
           let key = Printf.sprintf "AS-S%d" i in
           let s = Option.get (Rz_ir.Ir.find_as_set ir key) in
           Hashtbl.replace ir.Rz_ir.Ir.as_sets key
             { s with member_asns = toggle (100 + j) s.member_asns };
           Db.patch db [ Db.Edit_set key ]
         | 1 ->
           let key = Printf.sprintf "AS-S%d" i in
           let s = Option.get (Rz_ir.Ir.find_as_set ir key) in
           Hashtbl.replace ir.Rz_ir.Ir.as_sets key
             { s with member_sets = toggle (Printf.sprintf "AS-S%d" j) s.member_sets };
           Db.patch db [ Db.Edit_set key ]
         | 2 ->
           let key = Printf.sprintf "RS-R%d" i in
           let s = Option.get (Rz_ir.Ir.find_route_set ir key) in
           let m =
             if pick 2 = 0 then Rz_ir.Ir.Rs_asn (100 + j, Rz_net.Range_op.None_)
             else Rz_ir.Ir.Rs_set (Printf.sprintf "RS-R%d" j, Rz_net.Range_op.None_)
           in
           Hashtbl.replace ir.Rz_ir.Ir.route_sets key { s with members = toggle m s.members };
           Db.patch db [ Db.Edit_set key ]
         | _ ->
           let q = List.nth prefixes (pick (List.length prefixes)) and o = 100 + j in
           if Hashtbl.mem ir.Rz_ir.Ir.route_seen (q, o) then del_route db q o
           else add_route db q o);
        ok := !ok && same_as_build db ~sets ~origins ~prefixes
      done;
      !ok)

let suite =
  [ Alcotest.test_case "flatten direct" `Quick test_flatten_direct;
    Alcotest.test_case "flatten nested" `Quick test_flatten_nested;
    Alcotest.test_case "flatten loop" `Quick test_flatten_loop;
    Alcotest.test_case "loop reachable" `Quick test_flatten_loop_reachable;
    Alcotest.test_case "flatten unknown" `Quick test_flatten_unknown;
    Alcotest.test_case "flatten case-insensitive" `Quick test_flatten_case_insensitive;
    Alcotest.test_case "mbrs-by-ref authorized" `Quick test_mbrs_by_ref;
    Alcotest.test_case "mbrs-by-ref ANY" `Quick test_mbrs_by_ref_any;
    Alcotest.test_case "asn_in_as_set" `Quick test_asn_in_as_set;
    Alcotest.test_case "route queries" `Quick test_route_queries;
    Alcotest.test_case "route-set flatten" `Quick test_route_set_flatten;
    Alcotest.test_case "route-set loop" `Quick test_route_set_loop;
    Alcotest.test_case "route-set with as-set member" `Quick test_route_set_with_as_set_member;
    Alcotest.test_case "route-set member-of" `Quick test_route_set_member_of;
    Alcotest.test_case "of_dumps priority" `Quick test_of_dumps_priority;
    Alcotest.test_case "priority order list" `Quick test_priority_order_matches_synthirr;
    Alcotest.test_case "peval asn" `Quick test_peval_asn;
    Alcotest.test_case "peval as-set union" `Quick test_peval_as_set_union;
    Alcotest.test_case "peval difference" `Quick test_peval_difference;
    Alcotest.test_case "peval intersection" `Quick test_peval_intersection;
    Alcotest.test_case "peval route/filter sets" `Quick test_peval_route_set_and_filter_set;
    Alcotest.test_case "peval unresolved" `Quick test_peval_unresolved;
    Alcotest.test_case "peval aggregation" `Quick test_peval_prefix_list_aggregates;
    QCheck_alcotest.to_alcotest flatten_memo_consistent;
    Alcotest.test_case "patch keeps build's route order" `Quick test_patch_route_order;
    Alcotest.test_case "patch below a reference cycle" `Quick test_patch_below_cycle;
    Alcotest.test_case "patch follows member-of" `Quick test_patch_member_of;
    Alcotest.test_case "patch past the flatten work bound" `Quick test_patch_past_work_cap;
    QCheck_alcotest.to_alcotest patch_random_graphs;
    QCheck_alcotest.to_alcotest flatten_matches_naive;
    QCheck_alcotest.to_alcotest answers_order_independent ]
