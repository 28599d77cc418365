type counts = {
  mutable verified : int;
  mutable skipped : int;
  mutable unrecorded : int;
  mutable relaxed : int;
  mutable safelisted : int;
  mutable unverified : int;
}

let zero_counts () =
  { verified = 0; skipped = 0; unrecorded = 0; relaxed = 0; safelisted = 0; unverified = 0 }

let counts_total c =
  c.verified + c.skipped + c.unrecorded + c.relaxed + c.safelisted + c.unverified

let counts_add c (status : Status.t) =
  match status with
  | Status.Verified -> c.verified <- c.verified + 1
  | Status.Skipped _ -> c.skipped <- c.skipped + 1
  | Status.Unrecorded _ -> c.unrecorded <- c.unrecorded + 1
  | Status.Relaxed _ -> c.relaxed <- c.relaxed + 1
  | Status.Safelisted _ -> c.safelisted <- c.safelisted + 1
  | Status.Unverified -> c.unverified <- c.unverified + 1

let counts_classes c =
  [ ("verified", c.verified); ("skipped", c.skipped); ("unrecorded", c.unrecorded);
    ("relaxed", c.relaxed); ("safelisted", c.safelisted); ("unverified", c.unverified) ]

(* Unrecorded causes, per AS, for Figure 5. *)
type unrec_flags = {
  mutable no_aut_num : bool;
  mutable no_rules : bool;
  mutable zero_route_as : bool;
  mutable missing_set : bool;
}

(* Special cases, per AS, for Figure 6. *)
type special_flags = {
  mutable export_self : bool;
  mutable import_customer : bool;
  mutable missing_routes : bool;
  mutable only_provider : bool;
  mutable tier1_pair : bool;
  mutable uphill : bool;
}

type t = {
  per_as_import : (Rz_net.Asn.t, counts) Hashtbl.t;
  per_as_export : (Rz_net.Asn.t, counts) Hashtbl.t;
  per_pair_import : (Rz_net.Asn.t * Rz_net.Asn.t, counts) Hashtbl.t;
  per_pair_export : (Rz_net.Asn.t * Rz_net.Asn.t, counts) Hashtbl.t;
  per_route : (counts, int) Hashtbl.t;
      (* per-route count profile -> number of routes with it; a key is
         never mutated once added *)
  unrec_by_as : (Rz_net.Asn.t, unrec_flags) Hashtbl.t;
  special_by_as : (Rz_net.Asn.t, special_flags) Hashtbl.t;
  total : counts;
  mutable n_routes : int;
  mutable unverified_hops : int;
  mutable unverified_peering_only : int;
}

let create () =
  { per_as_import = Hashtbl.create 512;
    per_as_export = Hashtbl.create 512;
    per_pair_import = Hashtbl.create 2048;
    per_pair_export = Hashtbl.create 2048;
    per_route = Hashtbl.create 64;
    unrec_by_as = Hashtbl.create 512;
    special_by_as = Hashtbl.create 512;
    total = zero_counts ();
    n_routes = 0;
    unverified_hops = 0;
    unverified_peering_only = 0 }

let table_counts tbl key =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
    let c = zero_counts () in
    Hashtbl.replace tbl key c;
    c

let unrec_flags_of t asn =
  match Hashtbl.find_opt t.unrec_by_as asn with
  | Some f -> f
  | None ->
    let f = { no_aut_num = false; no_rules = false; zero_route_as = false; missing_set = false } in
    Hashtbl.replace t.unrec_by_as asn f;
    f

let special_flags_of t asn =
  match Hashtbl.find_opt t.special_by_as asn with
  | Some f -> f
  | None ->
    let f =
      { export_self = false; import_customer = false; missing_routes = false;
        only_provider = false; tier1_pair = false; uphill = false }
    in
    Hashtbl.replace t.special_by_as asn f;
    f

let record_hop t (hop : Report.hop) route_counts =
  let subject =
    match hop.direction with `Import -> hop.to_as | `Export -> hop.from_as
  in
  let as_table =
    match hop.direction with `Import -> t.per_as_import | `Export -> t.per_as_export
  in
  let pair_table =
    match hop.direction with `Import -> t.per_pair_import | `Export -> t.per_pair_export
  in
  counts_add (table_counts as_table subject) hop.status;
  counts_add (table_counts pair_table (hop.from_as, hop.to_as)) hop.status;
  counts_add t.total hop.status;
  counts_add route_counts hop.status;
  (match hop.status with
   | Status.Unrecorded reason ->
     let f = unrec_flags_of t subject in
     (match reason with
      | Status.No_aut_num _ -> f.no_aut_num <- true
      | Status.No_rules -> f.no_rules <- true
      | Status.Zero_route_as _ -> f.zero_route_as <- true
      | Status.Unrecorded_as_set _ | Status.Unrecorded_route_set _
      | Status.Unrecorded_peering_set _ | Status.Unrecorded_filter_set _ ->
        f.missing_set <- true)
   | Status.Relaxed special | Status.Safelisted special ->
     let f = special_flags_of t subject in
     (match special with
      | Status.Export_self -> f.export_self <- true
      | Status.Import_customer -> f.import_customer <- true
      | Status.Missing_routes -> f.missing_routes <- true
      | Status.Only_provider_policies -> f.only_provider <- true
      | Status.Tier1_pair -> f.tier1_pair <- true
      | Status.Uphill -> f.uphill <- true)
   | Status.Unverified ->
     t.unverified_hops <- t.unverified_hops + 1;
     (* "Undeclared peering": every diagnostic is a peering mismatch —
        no rule's peering covered the neighbor. *)
     if hop.peering_only then
       t.unverified_peering_only <- t.unverified_peering_only + 1
   | Status.Verified | Status.Skipped _ -> ())

let add_route_report t (report : Report.route_report) =
  let route_counts = zero_counts () in
  List.iter (fun hop -> record_hop t hop route_counts) report.hops;
  let m = Option.value ~default:0 (Hashtbl.find_opt t.per_route route_counts) in
  Hashtbl.replace t.per_route route_counts (m + 1);
  t.n_routes <- t.n_routes + 1

let n_routes t = t.n_routes
let n_hops t = counts_total t.total
let overall t = t.total

(* ---------------- Figure 2 ---------------- *)

let per_as_list t =
  let asns = Hashtbl.create 512 in
  Hashtbl.iter (fun asn _ -> Hashtbl.replace asns asn ()) t.per_as_import;
  Hashtbl.iter (fun asn _ -> Hashtbl.replace asns asn ()) t.per_as_export;
  Hashtbl.fold
    (fun asn () acc ->
      let imports =
        Option.value ~default:(zero_counts ()) (Hashtbl.find_opt t.per_as_import asn)
      in
      let exports =
        Option.value ~default:(zero_counts ()) (Hashtbl.find_opt t.per_as_export asn)
      in
      (asn, imports, exports) :: acc)
    asns []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

type per_as_summary = {
  n_ases : int;
  all_same_status : int;
  all_verified : int;
  all_unrecorded : int;
  all_relaxed : int;
  all_safelisted : int;
  all_unverified : int;
  with_skips : int;
  with_unrecorded : int;
  with_special : int;
}

let merge_counts a b =
  { verified = a.verified + b.verified;
    skipped = a.skipped + b.skipped;
    unrecorded = a.unrecorded + b.unrecorded;
    relaxed = a.relaxed + b.relaxed;
    safelisted = a.safelisted + b.safelisted;
    unverified = a.unverified + b.unverified }

let pure c =
  let total = counts_total c in
  if total = 0 then None
  else if c.verified = total then Some `Verified
  else if c.skipped = total then Some `Skipped
  else if c.unrecorded = total then Some `Unrecorded
  else if c.relaxed = total then Some `Relaxed
  else if c.safelisted = total then Some `Safelisted
  else if c.unverified = total then Some `Unverified
  else None

let per_as_summary (t : t) =
  let entries = per_as_list t in
  let s =
    { n_ases = List.length entries;
      all_same_status = 0;
      all_verified = 0;
      all_unrecorded = 0;
      all_relaxed = 0;
      all_safelisted = 0;
      all_unverified = 0;
      with_skips = 0;
      with_unrecorded = 0;
      with_special = 0 }
  in
  List.fold_left
    (fun s (_, imports, exports) ->
      let both = merge_counts imports exports in
      let s =
        match pure both with
        | Some status ->
          { s with
            all_same_status = s.all_same_status + 1;
            all_verified = (s.all_verified + if status = `Verified then 1 else 0);
            all_unrecorded = (s.all_unrecorded + if status = `Unrecorded then 1 else 0);
            all_relaxed = (s.all_relaxed + if status = `Relaxed then 1 else 0);
            all_safelisted = (s.all_safelisted + if status = `Safelisted then 1 else 0);
            all_unverified = (s.all_unverified + if status = `Unverified then 1 else 0) }
        | None -> s
      in
      { s with
        with_skips = (s.with_skips + if both.skipped > 0 then 1 else 0);
        with_unrecorded = (s.with_unrecorded + if both.unrecorded > 0 then 1 else 0);
        with_special = (s.with_special + if both.relaxed + both.safelisted > 0 then 1 else 0) })
    s entries

(* ---------------- Figure 3 ---------------- *)

type per_pair_summary = {
  n_pairs : int;
  single_status_import : float;
  single_status_export : float;
  pairs_with_unverified : int;
  unverified_peering_mismatch : float;
}

let per_pair_summary (t : t) =
  let single tbl =
    let total = Hashtbl.length tbl in
    if total = 0 then 0.0
    else begin
      let singles = ref 0 in
      Hashtbl.iter (fun _ c -> if pure c <> None then incr singles) tbl;
      float_of_int !singles /. float_of_int total
    end
  in
  let with_unverified = ref 0 in
  let count_unv tbl = Hashtbl.iter (fun _ c -> if c.unverified > 0 then incr with_unverified) tbl in
  count_unv t.per_pair_import;
  count_unv t.per_pair_export;
  { n_pairs = Hashtbl.length t.per_pair_import + Hashtbl.length t.per_pair_export;
    single_status_import = single t.per_pair_import;
    single_status_export = single t.per_pair_export;
    pairs_with_unverified = !with_unverified;
    unverified_peering_mismatch =
      (if t.unverified_hops = 0 then 0.0
       else float_of_int t.unverified_peering_only /. float_of_int t.unverified_hops) }

let per_pair_list (t : t) =
  let collect direction tbl acc =
    Hashtbl.fold (fun pair counts acc -> (direction, pair, counts) :: acc) tbl acc
  in
  collect `Import t.per_pair_import (collect `Export t.per_pair_export [])
  |> List.sort compare

(* ---------------- Figure 4 ---------------- *)

type per_route_summary = {
  n_routes : int;
  single_status : float;
  single_verified : float;
  single_unrecorded : float;
  single_unverified : float;
  two_statuses : float;
  three_plus : float;
}

let per_route_summary (t : t) =
  let n = t.n_routes in
  if n = 0 then
    { n_routes = 0; single_status = 0.0; single_verified = 0.0; single_unrecorded = 0.0;
      single_unverified = 0.0; two_statuses = 0.0; three_plus = 0.0 }
  else begin
    let singles = ref 0 and sv = ref 0 and su = ref 0 and sb = ref 0 in
    let twos = ref 0 and more = ref 0 in
    Hashtbl.iter
      (fun c m ->
        let add r = r := !r + m in
        let nonzero =
          List.length (List.filter (fun (_, v) -> v > 0) (counts_classes c))
        in
        if nonzero <= 1 then begin
          add singles;
          match pure c with
          | Some `Verified -> add sv
          | Some `Unrecorded -> add su
          | Some `Unverified -> add sb
          | _ -> ()
        end
        else if nonzero = 2 then add twos
        else add more)
      t.per_route;
    let f x = float_of_int x /. float_of_int n in
    { n_routes = n;
      single_status = f !singles;
      single_verified = f !sv;
      single_unrecorded = f !su;
      single_unverified = f !sb;
      two_statuses = f !twos;
      three_plus = f !more }
  end

(* The distinct profiles with their multiplicities, in sorted order. *)
let per_route_profiles (t : t) =
  List.sort compare (Hashtbl.fold (fun c m acc -> (c, m) :: acc) t.per_route [])

(* Each element is a fresh record, so a caller cannot mutate a key. *)
let per_route_list (t : t) =
  List.concat_map
    (fun (c, m) -> List.init m (fun _ -> { c with verified = c.verified }))
    (per_route_profiles t)

(* ---------------- Figures 5 and 6 ---------------- *)

type unrec_breakdown = {
  ases_no_aut_num : int;
  ases_no_rules : int;
  ases_zero_route_as : int;
  ases_missing_set : int;
}

let unrec_breakdown (t : t) =
  Hashtbl.fold
    (fun _ f acc ->
      { ases_no_aut_num = (acc.ases_no_aut_num + if f.no_aut_num then 1 else 0);
        ases_no_rules = (acc.ases_no_rules + if f.no_rules then 1 else 0);
        ases_zero_route_as = (acc.ases_zero_route_as + if f.zero_route_as then 1 else 0);
        ases_missing_set = (acc.ases_missing_set + if f.missing_set then 1 else 0) })
    t.unrec_by_as
    { ases_no_aut_num = 0; ases_no_rules = 0; ases_zero_route_as = 0; ases_missing_set = 0 }

type special_breakdown = {
  ases_export_self : int;
  ases_import_customer : int;
  ases_missing_routes : int;
  ases_only_provider : int;
  ases_tier1_pair : int;
  ases_uphill : int;
  ases_any_special : int;
}

let special_breakdown (t : t) =
  Hashtbl.fold
    (fun _ f acc ->
      { ases_export_self = (acc.ases_export_self + if f.export_self then 1 else 0);
        ases_import_customer =
          (acc.ases_import_customer + if f.import_customer then 1 else 0);
        ases_missing_routes = (acc.ases_missing_routes + if f.missing_routes then 1 else 0);
        ases_only_provider = (acc.ases_only_provider + if f.only_provider then 1 else 0);
        ases_tier1_pair = (acc.ases_tier1_pair + if f.tier1_pair then 1 else 0);
        ases_uphill = (acc.ases_uphill + if f.uphill then 1 else 0);
        ases_any_special = acc.ases_any_special + 1 })
    t.special_by_as
    { ases_export_self = 0; ases_import_customer = 0; ases_missing_routes = 0;
      ases_only_provider = 0; ases_tier1_pair = 0; ases_uphill = 0; ases_any_special = 0 }

(* ---------------- canonical fingerprint ---------------- *)

(* Every component of [t] is a commutative sum, a multiset or a
   monotone flag, so it does not depend on add order; the fingerprint
   renders each keyed series sorted. *)
let fingerprint (t : t) =
  let b = Buffer.create 4096 in
  let counts c =
    Buffer.add_string b
      (Printf.sprintf "%d/%d/%d/%d/%d/%d" c.verified c.skipped c.unrecorded
         c.relaxed c.safelisted c.unverified)
  in
  Buffer.add_string b (Printf.sprintf "routes=%d hops=%d " t.n_routes (counts_total t.total));
  Buffer.add_string b "total=";
  counts t.total;
  Buffer.add_string b
    (Printf.sprintf " unverified_hops=%d peering_only=%d" t.unverified_hops
       t.unverified_peering_only);
  Buffer.add_string b "\nper_as:";
  List.iter
    (fun (asn, imp, exp) ->
      Buffer.add_string b (Printf.sprintf "\n  %d i=" asn);
      counts imp;
      Buffer.add_string b " e=";
      counts exp)
    (per_as_list t);
  Buffer.add_string b "\nper_pair:";
  List.iter
    (fun (dir, (a, z), c) ->
      Buffer.add_string b
        (Printf.sprintf "\n  %s %d>%d "
           (match dir with `Import -> "i" | `Export -> "e")
           a z);
      counts c)
    (per_pair_list t);
  Buffer.add_string b "\nper_route:";
  List.iter
    (fun (c, m) ->
      for _ = 1 to m do
        Buffer.add_string b "\n  ";
        counts c
      done)
    (per_route_profiles t);
  let u = unrec_breakdown t in
  Buffer.add_string b
    (Printf.sprintf "\nunrec=%d/%d/%d/%d" u.ases_no_aut_num u.ases_no_rules
       u.ases_zero_route_as u.ases_missing_set);
  let s = special_breakdown t in
  Buffer.add_string b
    (Printf.sprintf "\nspecial=%d/%d/%d/%d/%d/%d/%d" s.ases_export_self
       s.ases_import_customer s.ases_missing_routes s.ases_only_provider
       s.ases_tier1_pair s.ases_uphill s.ases_any_special);
  Digest.to_hex (Digest.string (Buffer.contents b))
