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

let build_db ir =
  let db = Db.build ir in
  Db.warm_caches db;
  db

let init ir =
  { current = Atomic.make (build_db (Ir.copy ir));
    gen = Atomic.make 1;
    serial = 0;
    fp_cache = None;
    lock = Mutex.create () }

let current t = Atomic.get t.current
let generation t = Atomic.get t.gen
let last_serial t = t.serial

(* Remove the IR entry a paragraph's primary key names, whichever table
   it lives in. Route objects are keyed (prefix, origin). *)
let remove_obj (ir : Ir.t) (obj : Rz_rpsl.Obj.t) =
  let canon = Rz_rpsl.Set_name.canonical in
  match obj.cls with
  | "aut-num" -> (
    match Rz_net.Asn.of_string obj.name with
    | Ok asn -> Hashtbl.remove ir.aut_nums asn
    | Error _ -> ())
  | "as-set" -> Hashtbl.remove ir.as_sets (canon obj.name)
  | "route-set" -> Hashtbl.remove ir.route_sets (canon obj.name)
  | "peering-set" -> Hashtbl.remove ir.peering_sets (canon obj.name)
  | "filter-set" -> Hashtbl.remove ir.filter_sets (canon obj.name)
  | "rtr-set" -> Hashtbl.remove ir.rtr_sets (canon obj.name)
  | "mntner" -> Hashtbl.remove ir.mntners (Strings.uppercase obj.name)
  | "inet-rtr" -> Hashtbl.remove ir.inet_rtrs (Strings.lowercase obj.name)
  | "route" | "route6" -> (
    let origin =
      match Rz_rpsl.Obj.value obj "origin" with
      | Some o -> Rz_net.Asn.of_string o
      | None -> Error "no origin"
    in
    match (Rz_net.Prefix.of_string obj.name, origin) with
    | Ok prefix, Ok origin -> ignore (Ir.remove_route ir ~prefix ~origin)
    | _ -> ())
  | _ -> ()

let replay_op ir (op : Nrtm.op) =
  match (Rz_rpsl.Reader.parse_string op.text).objects with
  | [] -> Obs.Counter.incr c_rejected
  | obj :: _ -> (
    (* ADD replaces any existing same-key object (NRTM modify = DEL+ADD,
       but a replayed journal may also carry a bare replacing ADD), so
       both actions clear the key first. *)
    remove_obj ir obj;
    match op.action with
    | Nrtm.Del -> ()
    | Nrtm.Add -> Lower.add_objects ir ~source:op.source [ obj ])

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
    let ir = Ir.copy (Db.ir (Atomic.get t.current)) in
    List.iter (replay_op ir) fresh;
    let db = build_db ir in
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
