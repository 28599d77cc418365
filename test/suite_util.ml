(* Tests for rz_util: SplitMix64, descriptive stats, table rendering. *)
open Rz_util

let test_splitmix_deterministic () =
  let a = Splitmix.create 42 and b = Splitmix.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix.next a) (Splitmix.next b)
  done

let test_splitmix_seed_changes_stream () =
  let a = Splitmix.create 1 and b = Splitmix.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Splitmix.next a <> Splitmix.next b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_splitmix_int_bounds () =
  let rng = Splitmix.create 7 in
  for _ = 1 to 1000 do
    let v = Splitmix.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_splitmix_int_rejects_nonpositive () =
  let rng = Splitmix.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Splitmix.int: bound <= 0") (fun () ->
      ignore (Splitmix.int rng 0))

let test_splitmix_int_in () =
  let rng = Splitmix.create 3 in
  for _ = 1 to 200 do
    let v = Splitmix.int_in rng 5 9 in
    Alcotest.(check bool) "in [5,9]" true (v >= 5 && v <= 9)
  done

let test_splitmix_float_range () =
  let rng = Splitmix.create 11 in
  for _ = 1 to 1000 do
    let f = Splitmix.float rng in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_splitmix_copy_independent () =
  let a = Splitmix.create 5 in
  ignore (Splitmix.next a);
  let b = Splitmix.copy a in
  Alcotest.(check int64) "copies continue identically" (Splitmix.next a) (Splitmix.next b)

let test_weighted_respects_zero () =
  let rng = Splitmix.create 1 in
  for _ = 1 to 100 do
    let v = Splitmix.weighted rng [ (0.0, `A); (1.0, `B) ] in
    Alcotest.(check bool) "never picks zero-weight" true (v = `B)
  done

let test_shuffle_permutation () =
  let rng = Splitmix.create 9 in
  let arr = Array.init 20 Fun.id in
  Splitmix.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let test_sample_distinct () =
  let rng = Splitmix.create 13 in
  let sample = Splitmix.sample rng 5 (Array.init 10 Fun.id) in
  Alcotest.(check int) "5 elements" 5 (Array.length sample);
  let sorted = Array.to_list sample |> List.sort_uniq compare in
  Alcotest.(check int) "distinct" 5 (List.length sorted)

let test_ccdf_simple () =
  let ccdf = Stats_util.ccdf [ 1; 2; 2; 5 ] in
  Alcotest.(check int) "three distinct values" 3 (List.length ccdf);
  Alcotest.(check (float 1e-9)) "P(>=1)" 1.0 (List.assoc 1 ccdf);
  Alcotest.(check (float 1e-9)) "P(>=2)" 0.75 (List.assoc 2 ccdf);
  Alcotest.(check (float 1e-9)) "P(>=5)" 0.25 (List.assoc 5 ccdf)

let test_ccdf_empty () = Alcotest.(check int) "empty" 0 (List.length (Stats_util.ccdf []))

let test_ccdf_at () =
  let points = Stats_util.ccdf_at [ 0; 0; 3; 10 ] [ 1; 10; 100 ] in
  Alcotest.(check (float 1e-9)) "P(>=1)" 0.5 (List.assoc 1 points);
  Alcotest.(check (float 1e-9)) "P(>=10)" 0.25 (List.assoc 10 points);
  Alcotest.(check (float 1e-9)) "P(>=100)" 0.0 (List.assoc 100 points)

let test_percentile () =
  let samples = [ 5; 1; 9; 3; 7 ] in
  Alcotest.(check int) "median" 5 (Stats_util.percentile 50.0 samples);
  Alcotest.(check int) "min" 1 (Stats_util.percentile 0.0 samples);
  Alcotest.(check int) "max" 9 (Stats_util.percentile 100.0 samples)

let test_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats_util.mean [ 1; 2; 3; 4 ]);
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 (Stats_util.mean [])

let test_fraction () =
  Alcotest.(check (float 1e-9)) "half" 0.5 (Stats_util.fraction (fun x -> x > 2) [ 1; 2; 3; 4 ])

let test_table_render () =
  let text = Table.render ~header:[ "a"; "b" ] [ [ "xx"; "1" ]; [ "y"; "22" ] ] in
  Alcotest.(check bool) "has rule line" true (String.length text > 0);
  let lines = String.split_on_char '\n' text in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines)

let test_pct_and_commas () =
  Alcotest.(check string) "pct" "53.2%" (Table.pct 0.532);
  Alcotest.(check string) "commas" "78,701" (Table.commas 78701);
  Alcotest.(check string) "small" "42" (Table.commas 42);
  Alcotest.(check string) "million" "1,000,000" (Table.commas 1000000)

let test_strings_strip () =
  Alcotest.(check string) "strip" "abc" (Strings.strip "  abc\t\n");
  Alcotest.(check string) "empty" "" (Strings.strip "   ")

let test_strings_split_on_string () =
  Alcotest.(check (list string)) "split" [ "a"; "b"; "c" ]
    (Strings.split_on_string ~sep:"::" "a::b::c");
  Alcotest.(check (list string)) "no sep" [ "abc" ] (Strings.split_on_string ~sep:"::" "abc")

let test_strings_misc () =
  Alcotest.(check bool) "ci prefix" true (Strings.starts_with_ci ~prefix:"as-" "AS-FOO");
  Alcotest.(check bool) "ci equal" true (Strings.equal_ci "PeerAS" "PEERAS");
  Alcotest.(check bool) "blank" true (Strings.is_blank " \t ");
  Alcotest.(check (list string)) "words" [ "a"; "b" ] (Strings.split_words "  a\t b ");
  Alcotest.(check string) "chop" "abc " (Strings.chop_comment '#' "abc # comment")

let geometric_nonnegative =
  QCheck.Test.make ~name:"geometric is non-negative" ~count:200 QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Splitmix.create seed in
      Splitmix.geometric rng 0.5 >= 0)

let pareto_bounded =
  QCheck.Test.make ~name:"pareto_int respects bounds" ~count:200 QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Splitmix.create seed in
      let v = Splitmix.pareto_int rng ~alpha:1.2 ~xmin:1 ~max:50 in
      v >= 1 && v <= 50)

let suite =
  [ Alcotest.test_case "splitmix deterministic" `Quick test_splitmix_deterministic;
    Alcotest.test_case "splitmix seeds differ" `Quick test_splitmix_seed_changes_stream;
    Alcotest.test_case "splitmix int bounds" `Quick test_splitmix_int_bounds;
    Alcotest.test_case "splitmix int rejects <= 0" `Quick test_splitmix_int_rejects_nonpositive;
    Alcotest.test_case "splitmix int_in" `Quick test_splitmix_int_in;
    Alcotest.test_case "splitmix float range" `Quick test_splitmix_float_range;
    Alcotest.test_case "splitmix copy" `Quick test_splitmix_copy_independent;
    Alcotest.test_case "weighted skips zero weight" `Quick test_weighted_respects_zero;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutation;
    Alcotest.test_case "sample distinct" `Quick test_sample_distinct;
    Alcotest.test_case "ccdf simple" `Quick test_ccdf_simple;
    Alcotest.test_case "ccdf empty" `Quick test_ccdf_empty;
    Alcotest.test_case "ccdf at thresholds" `Quick test_ccdf_at;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "fraction" `Quick test_fraction;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "pct / commas" `Quick test_pct_and_commas;
    Alcotest.test_case "strings strip" `Quick test_strings_strip;
    Alcotest.test_case "strings split_on_string" `Quick test_strings_split_on_string;
    Alcotest.test_case "strings misc" `Quick test_strings_misc;
    QCheck_alcotest.to_alcotest geometric_nonnegative;
    QCheck_alcotest.to_alcotest pareto_bounded ]
