(* Copy-on-write database generations. See generation.mli. *)

module Ir = Rz_ir.Ir
module Lower = Rz_ir.Lower
module Db = Rz_irr.Db
module Nrtm = Rz_synthirr.Nrtm
module Obs = Rz_obs.Obs
module Json = Rz_json.Json
module Strings = Rz_util.Strings

let c_generations = Obs.Counter.make "serve.generations"
let c_applied = Obs.Counter.make "nrtm.ops_applied"
let c_stale = Obs.Counter.make "nrtm.ops_stale"
let c_rejected = Obs.Counter.make "nrtm.ops_rejected"
let h_swap = Obs.Histogram.make "serve.swap_ns"

type store = {
  current : Db.t Atomic.t;
  gen : int Atomic.t;
  mutable serial : int;  (* guarded by [lock] *)
  mutable fp_cache : (int * string) option;  (* guarded by [lock] *)
  lock : Mutex.t;
}

let init ir =
  let db = Db.build (Ir.copy ir) in
  Db.warm_caches db;
  Db.index db;
  { current = Atomic.make db;
    gen = Atomic.make 1;
    serial = 0;
    fp_cache = None;
    lock = Mutex.create () }

let current t = Atomic.get t.current
let generation t = Atomic.get t.gen
let last_serial t = t.serial

let canon = Rz_rpsl.Set_name.canonical

let asn_key (obj : Rz_rpsl.Obj.t) = Result.to_option (Rz_net.Asn.of_string obj.name)

(* Route objects are keyed (prefix, origin). *)
let route_key (obj : Rz_rpsl.Obj.t) =
  match Rz_rpsl.Obj.value obj "origin" with
  | None -> None
  | Some o -> (
    match (Rz_net.Prefix.of_string obj.name, Rz_net.Asn.of_string o) with
    | Ok prefix, Ok origin -> Some (prefix, origin)
    | _ -> None)

(* Remove the IR entry a paragraph's primary key names, whichever table
   it lives in, and return what the database read of it. *)
let remove_obj (ir : Ir.t) (obj : Rz_rpsl.Obj.t) =
  let set tbl =
    let key = canon obj.name in
    if Hashtbl.mem tbl key then begin
      Hashtbl.remove tbl key;
      [ Db.Set key ]
    end
    else []
  in
  match obj.cls with
  | "aut-num" -> (
    match Option.bind (asn_key obj) (Hashtbl.find_opt ir.aut_nums) with
    | Some an ->
      Hashtbl.remove ir.aut_nums an.asn;
      [ Db.Aut_num an ]
    | None -> [])
  | "as-set" -> set ir.as_sets
  | "route-set" -> set ir.route_sets
  | "peering-set" -> set ir.peering_sets
  | "filter-set" -> set ir.filter_sets
  | "route" | "route6" -> (
    match route_key obj with
    | Some (prefix, origin) ->
      List.map (fun r -> Db.Route r) (Ir.remove_route ir ~prefix ~origin)
    | None -> [])
  (* the database reads none of these *)
  | "rtr-set" -> Hashtbl.remove ir.rtr_sets (canon obj.name); []
  | "mntner" -> Hashtbl.remove ir.mntners (Strings.uppercase obj.name); []
  | "inet-rtr" -> Hashtbl.remove ir.inet_rtrs (Strings.lowercase obj.name); []
  | _ -> []

(* What lowering a paragraph left under its key, after [remove_obj]
   cleared it: a route object lowering added is the IR's newest. *)
let lowered (ir : Ir.t) (obj : Rz_rpsl.Obj.t) =
  let set tbl =
    let key = canon obj.name in
    if Hashtbl.mem tbl key then [ Db.Set key ] else []
  in
  match obj.cls with
  | "aut-num" ->
    Option.to_list
      (Option.map (fun an -> Db.Aut_num an)
         (Option.bind (asn_key obj) (Hashtbl.find_opt ir.aut_nums)))
  | "as-set" -> set ir.as_sets
  | "route-set" -> set ir.route_sets
  | "peering-set" -> set ir.peering_sets
  | "filter-set" -> set ir.filter_sets
  | "route" | "route6" -> (
    match route_key obj with
    | Some key when Hashtbl.mem ir.route_seen key ->
      [ Db.Route (Ir.Arena.get ir.routes (Ir.n_route_objs ir - 1)) ]
    | _ -> [])
  | _ -> []

let replay_op db (op : Nrtm.op) =
  match (Rz_rpsl.Reader.scan_string op.text).objects with
  | [] -> Obs.Counter.incr c_rejected
  | obj :: _ -> (
    let ir = Db.ir db in
    let patch changed =
      match List.concat_map (Db.edits_of ir) changed with
      | [] -> ()
      | edits -> Db.patch db edits
    in
    (* ADD replaces any existing same-key object (NRTM modify = DEL+ADD,
       but a replayed journal may also carry a bare replacing ADD), so
       both actions clear the key first. Patching the removal before the
       add moves a replaced route object to the newest place, where
       [Db.build] of the replayed IR puts it. *)
    patch (remove_obj ir obj);
    match op.action with
    | Nrtm.Del -> ()
    | Nrtm.Add ->
      Lower.add_objects ir ~source:op.source [ obj ];
      patch (lowered ir obj))

let apply t ops =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  let fresh, stale =
    List.partition (fun (op : Nrtm.op) -> op.serial > t.serial) ops
  in
  Obs.Counter.add c_stale (List.length stale);
  if fresh = [] then Atomic.get t.gen
  else begin
    let t0 = Obs.now_ns () in
    let db = Db.copy (Atomic.get t.current) in
    List.iter (replay_op db) fresh;
    Db.warm_caches db;
    t.serial <-
      List.fold_left (fun acc (op : Nrtm.op) -> max acc op.serial) t.serial fresh;
    Atomic.set t.current db;
    let gen = Atomic.fetch_and_add t.gen 1 + 1 in
    Obs.Counter.add c_applied (List.length fresh);
    Obs.Counter.incr c_generations;
    Obs.Histogram.observe h_swap (float_of_int (Obs.now_ns () - t0));
    gen
  end

let fingerprint db =
  let canonical =
    match Rz_ir.Ir_json.export (Db.ir db) with
    | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (key, value) ->
             match (key, value) with
             | "errors", _ -> None
             | "routes", Json.List routes ->
               let sorted =
                 List.map Json.to_string routes |> List.sort compare
               in
               Some (key, Json.List (List.map (fun s -> Json.String s) sorted))
             | _ -> Some (key, value))
           fields)
    | json -> json
  in
  Digest.to_hex (Digest.string (Json.to_string canonical))

(* The !s scrape wants the live generation's fingerprint on every poll,
   but [fingerprint] exports the whole IR — far too expensive per
   scrape. Memoize per generation number under the store lock; reading
   gen and db inside the same lock [apply] holds during a swap keeps the
   (gen, db) pair coherent. The export runs once per swap, on the first
   scrape that observes it. *)
let cached_fingerprint t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  let gen = Atomic.get t.gen in
  match t.fp_cache with
  | Some (g, fp) when g = gen -> fp
  | _ ->
    let fp = fingerprint (Atomic.get t.current) in
    t.fp_cache <- Some (gen, fp);
    fp
