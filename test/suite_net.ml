(* Tests for rz_net: ASNs, addresses, prefixes, range operators, the
   prefix trie, afi matching, martians. *)
open Rz_net

let prefix = Alcotest.testable Prefix.pp Prefix.equal
let p = Prefix.of_string_exn

(* ---------------- ASN ---------------- *)

let test_asn_parse () =
  Alcotest.(check int) "AS prefix" 65000 (Asn.of_string_exn "AS65000");
  Alcotest.(check int) "lowercase" 65000 (Asn.of_string_exn "as65000");
  Alcotest.(check int) "bare decimal" 12 (Asn.of_string_exn "12");
  Alcotest.(check int) "asdot" ((1 lsl 16) lor 5) (Asn.of_string_exn "1.5");
  Alcotest.(check int) "asdot with AS" ((2 lsl 16) lor 3) (Asn.of_string_exn "AS2.3")

let test_asn_parse_errors () =
  let bad s = Alcotest.(check bool) s true (Result.is_error (Asn.of_string s)) in
  bad "";
  bad "AS";
  bad "ASX";
  bad "AS-FOO";
  bad "4294967296";
  bad "-1";
  bad "1.70000"

let test_asn_print () =
  Alcotest.(check string) "to_string" "AS65000" (Asn.to_string 65000);
  Alcotest.(check string) "asdot small" "65000" (Asn.to_asdot 65000);
  Alcotest.(check string) "asdot large" "1.5" (Asn.to_asdot ((1 lsl 16) lor 5))

let test_asn_classes () =
  Alcotest.(check bool) "64512 private" true (Asn.is_private 64512);
  Alcotest.(check bool) "65534 private" true (Asn.is_private 65534);
  Alcotest.(check bool) "65535 not private" false (Asn.is_private 65535);
  Alcotest.(check bool) "65535 reserved" true (Asn.is_reserved 65535);
  Alcotest.(check bool) "0 reserved" true (Asn.is_reserved 0);
  Alcotest.(check bool) "23456 reserved" true (Asn.is_reserved 23456);
  Alcotest.(check bool) "15169 ordinary" false (Asn.is_private 15169 || Asn.is_reserved 15169)

(* ---------------- addresses ---------------- *)

let test_ipv4_roundtrip () =
  List.iter
    (fun s ->
      match Ipaddr.V4.of_string s with
      | Ok a -> Alcotest.(check string) s s (Ipaddr.V4.to_string a)
      | Error e -> Alcotest.fail e)
    [ "0.0.0.0"; "8.8.8.8"; "255.255.255.255"; "192.0.2.1" ]

let test_ipv4_errors () =
  let bad s = Alcotest.(check bool) s true (Result.is_error (Ipaddr.V4.of_string s)) in
  bad "1.2.3";
  bad "1.2.3.4.5";
  bad "256.1.1.1";
  bad "a.b.c.d";
  bad ""

let test_ipv6_roundtrip () =
  List.iter
    (fun (input, expect) ->
      match Ipaddr.V6.of_string input with
      | Ok a -> Alcotest.(check string) input expect (Ipaddr.V6.to_string a)
      | Error e -> Alcotest.fail e)
    [ ("::", "::");
      ("::1", "::1");
      ("2001:db8::", "2001:db8::");
      ("2001:0db8:0000:0000:0000:0000:0000:0001", "2001:db8::1");
      ("fe80::1:2:3:4", "fe80::1:2:3:4");
      ("1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8") ]

let test_ipv6_errors () =
  let bad s = Alcotest.(check bool) s true (Result.is_error (Ipaddr.V6.of_string s)) in
  bad ":::";
  bad "1:2:3";
  bad "2001:db8::1::2";
  bad "12345::";
  bad "g::1"

let test_ipv6_bits () =
  match Ipaddr.V6.of_string "8000::" with
  | Ok a ->
    Alcotest.(check bool) "top bit" true (Ipaddr.V6.bit a 0);
    Alcotest.(check bool) "second bit" false (Ipaddr.V6.bit a 1)
  | Error e -> Alcotest.fail e

(* ---------------- prefixes ---------------- *)

let test_prefix_parse_print () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Prefix.to_string (p s)))
    [ "0.0.0.0/0"; "10.0.0.0/8"; "192.0.2.0/24"; "192.0.2.1/32"; "2001:db8::/32"; "::/0" ]

let test_prefix_masks_host_bits () =
  Alcotest.check prefix "host bits cleared" (p "10.0.0.0/8") (p "10.1.2.3/8");
  Alcotest.check prefix "v6 host bits cleared" (p "2001:db8::/32")
    (p "2001:db8:dead:beef::/32")

let test_prefix_contains () =
  Alcotest.(check bool) "/8 contains /24" true (Prefix.contains (p "10.0.0.0/8") (p "10.1.2.0/24"));
  Alcotest.(check bool) "self containment" true (Prefix.contains (p "10.0.0.0/8") (p "10.0.0.0/8"));
  Alcotest.(check bool) "/24 not contains /8" false (Prefix.contains (p "10.1.2.0/24") (p "10.0.0.0/8"));
  Alcotest.(check bool) "disjoint" false (Prefix.contains (p "10.0.0.0/8") (p "11.0.0.0/24"));
  Alcotest.(check bool) "cross family" false (Prefix.contains (p "0.0.0.0/0") (p "2001:db8::/32"));
  Alcotest.(check bool) "v6 contains" true (Prefix.contains (p "2001:db8::/32") (p "2001:db8:1::/48"))

let test_prefix_compare_orders_v4_first () =
  Alcotest.(check bool) "v4 < v6" true (Prefix.compare (p "255.0.0.0/8") (p "::/0") < 0)

let test_prefix_bad_input () =
  let bad s = Alcotest.(check bool) s true (Result.is_error (Prefix.of_string s)) in
  bad "10.0.0.0";
  bad "10.0.0.0/33";
  bad "2001:db8::/129";
  bad "banana/8";
  bad "10.0.0.0/x"

let test_prefix_subnets () =
  let subs = Prefix.subnets (p "10.0.0.0/8") 10 in
  Alcotest.(check int) "4 /10s" 4 (List.length subs);
  Alcotest.check prefix "first" (p "10.0.0.0/10") (List.nth subs 0);
  Alcotest.check prefix "last" (p "10.192.0.0/10") (List.nth subs 3);
  List.iter
    (fun sub -> Alcotest.(check bool) "contained" true (Prefix.contains (p "10.0.0.0/8") sub))
    subs

let test_prefix_subnets_v6 () =
  let subs = Prefix.subnets (p "2001:db8::/32") 34 in
  Alcotest.(check int) "4 /34s" 4 (List.length subs);
  List.iter
    (fun sub -> Alcotest.(check bool) "contained" true (Prefix.contains (p "2001:db8::/32") sub))
    subs

(* ---------------- range operators ---------------- *)

let rop s = match Range_op.parse s with Ok o -> o | Error e -> Alcotest.fail e

let test_range_op_parse () =
  Alcotest.(check bool) "empty = none" true (rop "" = Range_op.None_);
  Alcotest.(check bool) "^-" true (rop "^-" = Range_op.Minus);
  Alcotest.(check bool) "^+" true (rop "^+" = Range_op.Plus);
  Alcotest.(check bool) "^24" true (rop "^24" = Range_op.Exact 24);
  Alcotest.(check bool) "^24-32" true (rop "^24-32" = Range_op.Range (24, 32));
  Alcotest.(check bool) "no caret" true (Result.is_error (Range_op.parse "24"));
  Alcotest.(check bool) "inverted" true (Result.is_error (Range_op.parse "^32-24"))

let test_range_op_matches () =
  let declared = p "10.0.0.0/8" in
  let m op observed = Range_op.matches op ~declared ~observed:(p observed) in
  Alcotest.(check bool) "none exact" true (m Range_op.None_ "10.0.0.0/8");
  Alcotest.(check bool) "none rejects longer" false (m Range_op.None_ "10.1.0.0/16");
  Alcotest.(check bool) "minus rejects exact" false (m Range_op.Minus "10.0.0.0/8");
  Alcotest.(check bool) "minus takes longer" true (m Range_op.Minus "10.1.0.0/16");
  Alcotest.(check bool) "plus takes exact" true (m Range_op.Plus "10.0.0.0/8");
  Alcotest.(check bool) "plus takes longer" true (m Range_op.Plus "10.1.2.0/24");
  Alcotest.(check bool) "^16 exact len" true (m (Range_op.Exact 16) "10.1.0.0/16");
  Alcotest.(check bool) "^16 rejects /24" false (m (Range_op.Exact 16) "10.1.2.0/24");
  Alcotest.(check bool) "^12-16 takes /14" true (m (Range_op.Range (12, 16)) "10.4.0.0/14");
  Alcotest.(check bool) "^12-16 rejects /24" false (m (Range_op.Range (12, 16)) "10.1.2.0/24");
  Alcotest.(check bool) "outside declared" false (m Range_op.Plus "11.0.0.0/16")

let test_range_op_compose () =
  Alcotest.(check bool) "outer wins" true
    (Range_op.compose Range_op.Plus (Range_op.Exact 24) = Range_op.Plus);
  Alcotest.(check bool) "none keeps inner" true
    (Range_op.compose Range_op.None_ Range_op.Minus = Range_op.Minus)

let test_range_op_strings () =
  Alcotest.(check string) "plus" "^+" (Range_op.to_string Range_op.Plus);
  Alcotest.(check string) "range" "^24-32" (Range_op.to_string (Range_op.Range (24, 32)));
  Alcotest.(check bool) "more specific plus" true (Range_op.is_more_specific Range_op.Plus);
  Alcotest.(check bool) "none not" false (Range_op.is_more_specific Range_op.None_)

(* ---------------- prefix trie ---------------- *)

let test_trie_exact_and_covering () =
  let trie = Prefix_trie.create () in
  Prefix_trie.add trie (p "10.0.0.0/8") 1;
  Prefix_trie.add trie (p "10.1.0.0/16") 2;
  Prefix_trie.add trie (p "10.1.0.0/16") 3;
  Prefix_trie.add trie (p "2001:db8::/32") 4;
  Alcotest.(check (list int)) "exact multi" [ 3; 2 ] (Prefix_trie.exact trie (p "10.1.0.0/16"));
  Alcotest.(check (list int)) "exact none" [] (Prefix_trie.exact trie (p "10.2.0.0/16"));
  let covering = Prefix_trie.covering trie (p "10.1.2.0/24") in
  Alcotest.(check int) "3 covering entries" 3 (List.length covering);
  Alcotest.check prefix "least specific first" (p "10.0.0.0/8") (fst (List.hd covering));
  Alcotest.(check int) "v6 isolated" 1 (List.length (Prefix_trie.covering trie (p "2001:db8:1::/48")))

let test_trie_covered_by () =
  let trie = Prefix_trie.create () in
  Prefix_trie.add trie (p "10.0.0.0/8") 1;
  Prefix_trie.add trie (p "10.1.0.0/16") 2;
  Prefix_trie.add trie (p "11.0.0.0/8") 3;
  let covered = Prefix_trie.covered_by trie (p "10.0.0.0/8") in
  Alcotest.(check int) "two inside /8" 2 (List.length covered);
  Alcotest.(check int) "all under /0" 3 (List.length (Prefix_trie.covered_by trie (p "0.0.0.0/0")))

let test_trie_length_iter_fold () =
  let trie = Prefix_trie.create () in
  Prefix_trie.add trie (p "10.0.0.0/8") 1;
  Prefix_trie.add trie (p "2001:db8::/32") 2;
  Alcotest.(check int) "length" 2 (Prefix_trie.length trie);
  let seen = ref 0 in
  Prefix_trie.iter (fun _ _ -> incr seen) trie;
  Alcotest.(check int) "iter" 2 !seen;
  Alcotest.(check int) "fold sum" 3 (Prefix_trie.fold (fun _ v acc -> v + acc) trie 0)

let trie_covering_is_sound =
  QCheck.Test.make ~name:"trie covering = brute-force contains" ~count:100
    QCheck.(int_range 1 100000)
    (fun seed ->
      let rng = Rz_util.Splitmix.create seed in
      let trie = Prefix_trie.create () in
      let entries = ref [] in
      for i = 0 to 30 do
        let len = 8 + Rz_util.Splitmix.int rng 17 in
        let addr = Rz_util.Splitmix.int rng (1 lsl 24) lsl 8 in
        let pfx = Prefix.v4 addr len in
        Prefix_trie.add trie pfx i;
        entries := (pfx, i) :: !entries
      done;
      let probe = Prefix.v4 (Rz_util.Splitmix.int rng (1 lsl 24) lsl 8) 24 in
      let got = List.sort compare (Prefix_trie.covering trie probe) in
      let expected =
        List.sort compare (List.filter (fun (pfx, _) -> Prefix.contains pfx probe) !entries)
      in
      got = expected)

(* ---------------- prefix aggregation ---------------- *)

let agg l = List.map Prefix.to_string (Prefix_agg.aggregate (List.map p l))

let test_agg_siblings () =
  Alcotest.(check (list string)) "two halves merge" [ "10.0.0.0/23" ]
    (agg [ "10.0.0.0/24"; "10.0.1.0/24" ]);
  Alcotest.(check (list string)) "cascade to /22" [ "10.0.0.0/22" ]
    (agg [ "10.0.0.0/24"; "10.0.1.0/24"; "10.0.2.0/24"; "10.0.3.0/24" ]);
  Alcotest.(check (list string)) "non-siblings stay" [ "10.0.1.0/24"; "10.0.2.0/24" ]
    (agg [ "10.0.1.0/24"; "10.0.2.0/24" ])

let test_agg_containment () =
  Alcotest.(check (list string)) "contained dropped" [ "10.0.0.0/8" ]
    (agg [ "10.0.0.0/8"; "10.1.0.0/16"; "10.2.3.0/24" ]);
  Alcotest.(check (list string)) "duplicates dropped" [ "10.0.0.0/24" ]
    (agg [ "10.0.0.0/24"; "10.0.0.0/24" ])

let test_agg_mixed_families () =
  Alcotest.(check (list string)) "families independent"
    [ "10.0.0.0/23"; "2001:db8::/32" ]
    (agg [ "10.0.0.0/24"; "2001:db8::/32"; "10.0.1.0/24" ])

let test_agg_v6_siblings () =
  Alcotest.(check (list string)) "v6 merge across limb" [ "2001:db8::/63" ]
    (agg [ "2001:db8:0:0::/64"; "2001:db8:0:1::/64" ]);
  Alcotest.(check (list string)) "v6 long lengths" [ "2001:db8::/127" ]
    (agg [ "2001:db8::/128"; "2001:db8::1/128" ])

let test_agg_sibling_parent () =
  let pfx = p "10.0.1.0/24" in
  Alcotest.(check (option string)) "sibling" (Some "10.0.0.0/24")
    (Option.map Prefix.to_string (Prefix_agg.sibling pfx));
  Alcotest.(check (option string)) "parent" (Some "10.0.0.0/23")
    (Option.map Prefix.to_string (Prefix_agg.parent pfx));
  Alcotest.(check (option string)) "default has no parent" None
    (Option.map Prefix.to_string (Prefix_agg.parent (p "0.0.0.0/0")))

(* 8,191 /24s: all of 10.0.0.0/11 less the one at 10.0.5.0 (the hole).
   10.16.0.0/12 cascades up whole; in 10.0.0.0/12 each level along the
   hole's path keeps the one half the hole does not touch: a staircase. *)
let test_agg_cascade_staircase () =
  let hole = p "10.0.5.0/24" in
  let slash24s =
    List.filter
      (fun q -> not (Prefix.equal q hole))
      (Prefix.subnets (p "10.0.0.0/12") 24 @ Prefix.subnets (p "10.16.0.0/12") 24)
  in
  Alcotest.(check int) "input size" 8191 (List.length slash24s);
  Alcotest.(check (list string)) "staircase around the hole"
    [ "10.0.0.0/22"; "10.0.4.0/24"; "10.0.6.0/23"; "10.0.8.0/21"; "10.0.16.0/20";
      "10.0.32.0/19"; "10.0.64.0/18"; "10.0.128.0/17"; "10.1.0.0/16"; "10.2.0.0/15";
      "10.4.0.0/14"; "10.8.0.0/13"; "10.16.0.0/12" ]
    (List.map Prefix.to_string (Prefix_agg.aggregate (List.rev slash24s)));
  Alcotest.(check (list string)) "no hole: one prefix" [ "10.0.0.0/11" ]
    (List.map Prefix.to_string (Prefix_agg.aggregate (hole :: slash24s)))

(* The containment-then-sibling-merge fixpoint that [Prefix_agg.aggregate]
   replaced, kept as a reference implementation. *)
let reference_aggregate prefixes =
  let drop_contained sorted =
    let rec go kept = function
      | [] -> List.rev kept
      | q :: rest ->
        if List.exists (fun k -> Prefix.contains k q) kept then go kept rest
        else go (q :: kept) rest
    in
    go [] sorted
  in
  let rec merge_siblings sorted =
    let rec go acc changed = function
      | a :: b :: rest when a.Prefix.len = b.Prefix.len && Prefix_agg.sibling a = Some b -> (
        match Prefix_agg.parent a with
        | Some up -> go (up :: acc) true rest
        | None -> go (b :: a :: acc) changed rest)
      | x :: rest -> go (x :: acc) changed rest
      | [] -> (List.rev acc, changed)
    in
    let merged, changed = go [] false sorted in
    if changed then merge_siblings (drop_contained (List.sort_uniq Prefix.compare merged))
    else merged
  in
  prefixes |> List.sort_uniq Prefix.compare |> drop_contained |> merge_siblings

(* A cluster of random prefixes: one family, an anchor length and a
   window. Draws keep the family's base address except in the [window]
   bits just above the anchor, and most sit at the anchor, so they repeat
   and fill whole blocks that cascade. A few are one or two bits shorter,
   and one cluster in three has one prefix of any length down to /0; they
   cover runs of the others. Anchors favour the edges: /0, /1, the
   longest two and, for v6, the /63-/65 limb boundary. *)
let gen_cluster =
  let open QCheck.Gen in
  let* v6 = bool in
  let max = if v6 then 128 else 32 in
  let* anchor =
    frequency
      ([ (1, return 0); (1, return 1); (2, int_range (max - 1) max); (3, int_range 0 max) ]
      @ if v6 then [ (3, int_range 63 65) ] else [])
  in
  let* window = int_range 1 8 in
  let gen_at len =
    let+ flips = int_bound ((1 lsl window) - 1) in
    let flipped i =
      i < len && i >= anchor - window && flips land (1 lsl (anchor - 1 - i)) <> 0
    in
    if v6 then begin
      let word base off =
        let w = ref base in
        for i = 0 to 63 do
          if flipped (off + i) then w := Int64.logxor !w (Int64.shift_left 1L (63 - i))
        done;
        !w
      in
      Prefix.v6 (word 0x20010DB8_00000000L 0, word 0L 64) len
    end
    else begin
      let a = ref 0x0A000000 in
      for i = 0 to 31 do
        if flipped i then a := !a lxor (1 lsl (31 - i))
      done;
      Prefix.v4 !a len
    end
  in
  let* near =
    list_size (int_range 0 150)
      (let* d = frequencyl [ (30, 0); (2, 1); (1, 2) ] in
       gen_at (Int.max 0 (anchor - d)))
  in
  let+ cover =
    frequency [ (2, return []); (1, map (fun q -> [ q ]) (int_bound anchor >>= gen_at)) ]
  in
  cover @ near

(* One to three clusters, up to a few hundred prefixes, plus repeats of
   some of them, in random order. *)
let gen_prefix_list =
  let open QCheck.Gen in
  let* clusters = list_size (int_range 1 3) gen_cluster in
  let drawn = List.concat clusters in
  let* repeats = shuffle_l drawn in
  let* n_repeats = int_bound (List.length drawn) in
  shuffle_l (drawn @ List.filteri (fun i _ -> i < n_repeats) repeats)

let arb_prefix_list =
  QCheck.make
    ~print:(fun l -> String.concat " " (List.map Prefix.to_string l))
    gen_prefix_list

(* Whether two prefix lists cover the same addresses, checked with host
   probes through a trie rather than by aggregating. Coverage of a list
   changes only at the first address of one of its prefixes or just past
   the last, so probing those points of both lists is exhaustive. *)
let same_address_set a b =
  let trie l =
    let t = Prefix_trie.create () in
    List.iter (fun q -> Prefix_trie.add t q ()) l;
    t
  in
  let ta = trie a and tb = trie b in
  let host (q : Prefix.t) =
    match q.addr with V4 x -> Prefix.v4 x 32 | V6 x -> Prefix.v6 x 128
  in
  let past_end (q : Prefix.t) =
    match q.addr with
    | V4 x ->
      let next = x + (1 lsl (32 - q.len)) in
      if next >= 1 lsl 32 then None else Some (Prefix.v4 next 32)
    | V6 (hi, lo) ->
      if q.len = 0 then None
      else if q.len <= 64 then
        let hi' = Int64.add hi (Int64.shift_left 1L (64 - q.len)) in
        if hi' = 0L then None else Some (Prefix.v6 (hi', 0L) 128)
      else
        let lo' = Int64.add lo (Int64.shift_left 1L (128 - q.len)) in
        if lo' <> 0L then Some (Prefix.v6 (hi, lo') 128)
        else if hi = -1L then None
        else Some (Prefix.v6 (Int64.succ hi, 0L) 128)
  in
  let covered t probe = Prefix_trie.covering t probe <> [] in
  List.for_all
    (fun q ->
      List.for_all
        (fun probe -> covered ta probe = covered tb probe)
        (host q :: Option.to_list (past_end q)))
    (a @ b)

let test_same_address_set_oracle () =
  let ps = List.map p in
  Alcotest.(check bool) "halves = parent" true
    (same_address_set (ps [ "10.0.0.0/24"; "10.0.1.0/24" ]) (ps [ "10.0.0.0/23" ]));
  Alcotest.(check bool) "missing half" false
    (same_address_set (ps [ "10.0.0.0/24" ]) (ps [ "10.0.0.0/23" ]));
  Alcotest.(check bool) "v6 across the limb" true
    (same_address_set (ps [ "2001:db8::/64"; "2001:db8:0:1::/64" ]) (ps [ "2001:db8::/63" ]));
  Alcotest.(check bool) "top of the v6 space" false
    (same_address_set (ps [ "ffff:ffff:ffff:ffff::/64" ]) (ps [ "ffff:ffff:ffff:fffe::/63" ]));
  Alcotest.(check bool) "families differ" false
    (same_address_set (ps [ "0.0.0.0/0" ]) (ps [ "::/0" ]))

let agg_preserves_space =
  QCheck.Test.make ~name:"aggregation preserves the address set" ~count:200 arb_prefix_list
    (fun prefixes ->
      let out = Prefix_agg.aggregate prefixes in
      same_address_set prefixes out
      && Prefix_agg.aggregate out = out
      && Prefix_agg.covers_same_space prefixes out)

let agg_is_minimal =
  QCheck.Test.make ~name:"aggregation leaves no siblings or containment" ~count:200
    arb_prefix_list (fun prefixes ->
      let out = Prefix_agg.aggregate prefixes in
      let no_containment =
        List.for_all
          (fun a -> List.for_all (fun b -> a == b || not (Prefix.contains a b)) out)
          out
      in
      let no_siblings =
        List.for_all
          (fun a ->
            match Prefix_agg.sibling a with
            | Some s -> not (List.exists (Prefix.equal s) out)
            | None -> true)
          out
      in
      no_containment && no_siblings)

let agg_matches_reference =
  QCheck.Test.make ~name:"aggregation = containment/sibling fixpoint" ~count:300
    arb_prefix_list (fun prefixes ->
      List.equal Prefix.equal (Prefix_agg.aggregate prefixes) (reference_aggregate prefixes))

(* ---------------- afi ---------------- *)

let afi s = match Afi.parse s with Ok a -> a | Error e -> Alcotest.fail e

let test_afi_parse () =
  Alcotest.(check string) "any" "any" (Afi.to_string (afi "any"));
  Alcotest.(check string) "ipv4.unicast" "ipv4.unicast" (Afi.to_string (afi "IPv4.Unicast"));
  Alcotest.(check string) "ipv6" "ipv6" (Afi.to_string (afi "ipv6"));
  Alcotest.(check bool) "bad family" true (Result.is_error (Afi.parse "ipv5"));
  Alcotest.(check bool) "bad sub" true (Result.is_error (Afi.parse "ipv4.anycast"))

let test_afi_parse_list () =
  match Afi.parse_list "ipv4.unicast, ipv6.unicast" with
  | Ok [ a; b ] ->
    Alcotest.(check string) "first" "ipv4.unicast" (Afi.to_string a);
    Alcotest.(check string) "second" "ipv6.unicast" (Afi.to_string b)
  | _ -> Alcotest.fail "expected two afis"

let test_afi_matching () =
  Alcotest.(check bool) "any matches v4" true (Afi.matches_prefix Afi.any (p "10.0.0.0/8"));
  Alcotest.(check bool) "any matches v6" true (Afi.matches_prefix Afi.any (p "2001:db8::/32"));
  Alcotest.(check bool) "v4 rejects v6" false
    (Afi.matches_prefix Afi.ipv4_unicast (p "2001:db8::/32"));
  Alcotest.(check bool) "v6 accepts v6" true
    (Afi.matches_prefix Afi.ipv6_unicast (p "2001:db8::/32"));
  Alcotest.(check bool) "multicast rejects unicast routes" false
    (Afi.matches_prefix (afi "ipv4.multicast") (p "10.0.0.0/8"));
  Alcotest.(check bool) "empty list = no restriction" true (Afi.matches_any [] (p "10.0.0.0/8"));
  Alcotest.(check bool) "list any-of" true
    (Afi.matches_any [ Afi.ipv6_unicast; Afi.ipv4_unicast ] (p "10.0.0.0/8"))

(* ---------------- martians ---------------- *)

let test_martians () =
  Alcotest.(check bool) "rfc1918" true (Martian.is_martian (p "10.1.2.0/24"));
  Alcotest.(check bool) "loopback" true (Martian.is_martian (p "127.0.0.0/8"));
  Alcotest.(check bool) "long v4" true (Martian.is_martian (p "8.8.8.0/25"));
  Alcotest.(check bool) "public /24 fine" false (Martian.is_martian (p "8.8.8.0/24"));
  Alcotest.(check bool) "doc v6" true (Martian.is_martian (p "2001:db8::/32"));
  Alcotest.(check bool) "long v6" true (Martian.is_martian (p "2a00::/64"));
  Alcotest.(check bool) "public v6 fine" false (Martian.is_martian (p "2a00::/32"))

let suite =
  [ Alcotest.test_case "asn parse" `Quick test_asn_parse;
    Alcotest.test_case "asn parse errors" `Quick test_asn_parse_errors;
    Alcotest.test_case "asn print" `Quick test_asn_print;
    Alcotest.test_case "asn classes" `Quick test_asn_classes;
    Alcotest.test_case "ipv4 roundtrip" `Quick test_ipv4_roundtrip;
    Alcotest.test_case "ipv4 errors" `Quick test_ipv4_errors;
    Alcotest.test_case "ipv6 roundtrip" `Quick test_ipv6_roundtrip;
    Alcotest.test_case "ipv6 errors" `Quick test_ipv6_errors;
    Alcotest.test_case "ipv6 bits" `Quick test_ipv6_bits;
    Alcotest.test_case "prefix parse/print" `Quick test_prefix_parse_print;
    Alcotest.test_case "prefix canonical" `Quick test_prefix_masks_host_bits;
    Alcotest.test_case "prefix contains" `Quick test_prefix_contains;
    Alcotest.test_case "prefix ordering" `Quick test_prefix_compare_orders_v4_first;
    Alcotest.test_case "prefix bad input" `Quick test_prefix_bad_input;
    Alcotest.test_case "prefix subnets" `Quick test_prefix_subnets;
    Alcotest.test_case "prefix subnets v6" `Quick test_prefix_subnets_v6;
    Alcotest.test_case "range op parse" `Quick test_range_op_parse;
    Alcotest.test_case "range op matches" `Quick test_range_op_matches;
    Alcotest.test_case "range op compose" `Quick test_range_op_compose;
    Alcotest.test_case "range op strings" `Quick test_range_op_strings;
    Alcotest.test_case "trie exact/covering" `Quick test_trie_exact_and_covering;
    Alcotest.test_case "trie covered_by" `Quick test_trie_covered_by;
    Alcotest.test_case "trie length/iter/fold" `Quick test_trie_length_iter_fold;
    QCheck_alcotest.to_alcotest trie_covering_is_sound;
    Alcotest.test_case "agg siblings" `Quick test_agg_siblings;
    Alcotest.test_case "agg containment" `Quick test_agg_containment;
    Alcotest.test_case "agg mixed families" `Quick test_agg_mixed_families;
    Alcotest.test_case "agg v6" `Quick test_agg_v6_siblings;
    Alcotest.test_case "agg sibling/parent" `Quick test_agg_sibling_parent;
    Alcotest.test_case "agg cascade staircase" `Quick test_agg_cascade_staircase;
    Alcotest.test_case "agg address-set oracle" `Quick test_same_address_set_oracle;
    QCheck_alcotest.to_alcotest agg_preserves_space;
    QCheck_alcotest.to_alcotest agg_is_minimal;
    QCheck_alcotest.to_alcotest agg_matches_reference;
    Alcotest.test_case "afi parse" `Quick test_afi_parse;
    Alcotest.test_case "afi parse list" `Quick test_afi_parse_list;
    Alcotest.test_case "afi matching" `Quick test_afi_matching;
    Alcotest.test_case "martians" `Quick test_martians ]
