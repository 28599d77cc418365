(* Public-surface drift: every [val] a library interface exports must be
   named by some source file outside its own module. A word match over
   lib, bin, bench, perfbench, examples and test, like the README metrics
   table drift check in suite_obs. A word match cannot tell modules
   apart (two modules' [quantile] mask each other), so it misses some
   dead values. A failure names each value no other file uses: delete it
   from its .mli, and its code too unless its own module uses it. *)

(* cwd is _build/default/test under `dune runtest`, the workspace root
   under `dune exec test/test_main.exe` *)
let root = if Sys.file_exists "../lib/net/asn.mli" then ".." else "."

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every .ml/.mli under [dir], recursively, skipping dune's own trees. *)
let rec sources dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry ->
           let path = Filename.concat dir entry in
           if Sys.is_directory path then
             if entry = "_build" || entry = "_work" then [] else sources path
           else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
           then [ path ]
           else [])

let is_word_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let words text =
  let tbl = Hashtbl.create 256 and n = String.length text in
  let i = ref 0 in
  while !i < n do
    if is_word_char text.[!i] then begin
      let start = !i in
      while !i < n && is_word_char text.[!i] do incr i done;
      Hashtbl.replace tbl (String.sub text start (!i - start)) ()
    end
    else incr i
  done;
  tbl

(* The names of the [val] entries of an interface, nested signatures
   included. *)
let vals text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | "val" :: name :: _ when name <> "" ->
           let n = String.length name in
           Some (if name.[n - 1] = ':' then String.sub name 0 (n - 1) else name)
         | _ -> None)

let test_every_val_is_named_outside_its_module () =
  let files =
    List.concat_map
      (fun d -> sources (Filename.concat root d))
      [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]
  in
  let index = List.map (fun f -> (f, words (read f))) files in
  let interfaces =
    List.filter
      (fun f ->
        Filename.check_suffix f ".mli"
        && Filename.dirname (Filename.dirname f) = Filename.concat root "lib")
      files
  in
  Alcotest.(check bool) "library interfaces found" true (List.length interfaces > 50);
  let unnamed =
    List.concat_map
      (fun mli ->
        let own = [ mli; Filename.chop_suffix mli ".mli" ^ ".ml" ] in
        vals (read mli)
        |> List.filter (fun name ->
               not
                 (List.exists
                    (fun (f, ws) -> (not (List.mem f own)) && Hashtbl.mem ws name)
                    index))
        |> List.map (fun name -> Printf.sprintf "%s: %s" mli name))
      interfaces
  in
  if unnamed <> [] then
    Alcotest.failf "values no file outside their module names:\n%s"
      (String.concat "\n" unnamed)

(* The files under [dirs] whose text contains one of [needles] as a whole
   word (a needle may be module-qualified), less the [allowed] files. *)
let files_naming ~dirs ~allowed needles =
  let has_word text needle =
    let n = String.length needle and len = String.length text in
    let bounded k = k < 0 || k >= len || not (is_word_char text.[k]) in
    let rec at j k = k = n || (text.[j + k] = needle.[k] && at j (k + 1)) in
    let rec from j = j + n <= len && ((at j 0 && bounded (j - 1) && bounded (j + n)) || from (j + 1)) in
    from 0
  in
  List.concat_map (fun d -> sources (Filename.concat root d)) dirs
  |> List.filter (fun f ->
         (not (List.mem f (List.map (Filename.concat root) allowed)))
         && List.exists (has_word (read f)) needles)

(* One RPSL front end in the product: the line-based reference chain
   ([Reader.parse_string] -> [Lower.add_dump] -> [Db.of_dumps] /
   [Ingest.ingest_sequential]) is for the tests to compare [scan_string]
   and [Ingest] against. Outside the chain's own definitions no product
   file names it. *)
let test_product_reads_rpsl_only_by_scanner () =
  let offenders =
    files_naming
      ~dirs:[ "lib"; "bin"; "bench"; "examples" ]
      ~allowed:
        [ "lib/rpsl/reader.ml"; "lib/rpsl/reader.mli"; "lib/ir/lower.ml"; "lib/ir/lower.mli";
          "lib/irr/db.ml"; "lib/irr/db.mli"; "lib/ingest/ingest.ml"; "lib/ingest/ingest.mli" ]
      [ "Reader.parse_string"; "add_dump"; "of_dumps"; "ingest_sequential" ]
  in
  if offenders <> [] then
    Alcotest.failf "product files reach the reference RPSL reader (use Ingest or \
                    Reader.scan_string):\n%s"
      (String.concat "\n" offenders)

(* Number fields of files and rules are read with [Strings.decimal], which
   takes no sign, [_] or radix prefix. Two reads stay on int_of_string:
   the JSON number token, and IPv6 hex groups already checked to be 1-4
   hex digits. *)
let test_lib_reads_numbers_by_decimal () =
  let offenders =
    files_naming ~dirs:[ "lib" ]
      ~allowed:
        [ "lib/util/strings.ml"; "lib/util/strings.mli"; "lib/json/json.ml"; "lib/net/ipaddr.ml" ]
      [ "int_of_string"; "int_of_string_opt" ]
  in
  if offenders <> [] then
    Alcotest.failf "lib files read numbers with int_of_string (use \
                    Rz_util.Strings.decimal):\n%s"
      (String.concat "\n" offenders)

let suite =
  [ Alcotest.test_case "every val is named outside its module" `Quick
      test_every_val_is_named_outside_its_module;
    Alcotest.test_case "product reads RPSL only by the scanner" `Quick
      test_product_reads_rpsl_only_by_scanner;
    Alcotest.test_case "lib reads numbers by decimal" `Quick
      test_lib_reads_numbers_by_decimal ]
