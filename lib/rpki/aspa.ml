module Asn_set = Set.Make (Int)

type t = { attestations : (Rz_net.Asn.t, Asn_set.t) Hashtbl.t }

let create () = { attestations = Hashtbl.create 256 }

let attest t ~customer ~providers =
  let existing =
    Option.value ~default:Asn_set.empty (Hashtbl.find_opt t.attestations customer)
  in
  Hashtbl.replace t.attestations customer
    (List.fold_left (fun acc p -> Asn_set.add p acc) existing providers)

let size t = Hashtbl.length t.attestations

type auth =
  | Provider
  | Not_provider
  | No_attestation

let authorized t ~customer ~provider =
  match Hashtbl.find_opt t.attestations customer with
  | None -> No_attestation
  | Some providers -> if Asn_set.mem provider providers then Provider else Not_provider

type result =
  | Valid
  | Invalid
  | Unknown

(* Path verification over a(1..n) = origin .. collector peer.

   up(i)   = authorized(a_i   -> a_i+1)  — can the path climb at i?
   down(i) = authorized(a_i+1 -> a_i)    — can the path descend at i?

   max_up_ramp:  largest U with up(i) <> Not_provider for all i < U — the
   furthest the path can plausibly climb from the origin.
   max_down_ramp: symmetric from the collector side.

   If the two ramps meet (possibly with one lateral hop at the apex) the
   path is plausibly valley-free; when every hop in the winning
   decomposition is affirmatively attested the result is Valid, otherwise
   Unknown. If the ramps cannot meet even with one apex hop, some hop is
   provably unauthorized in both directions: Invalid. *)
let verify_path t path_wire =
  let n = Array.length path_wire in
  if n <= 1 then Valid
  else begin
    let a = Array.init n (fun i -> path_wire.(n - 1 - i)) in
    let up i = authorized t ~customer:a.(i) ~provider:a.(i + 1) in
    let down i = authorized t ~customer:a.(i + 1) ~provider:a.(i) in
    let pairs = n - 1 in
    (* ramp lengths counted in pairs *)
    let max_up = ref 0 in
    (try
       for i = 0 to pairs - 1 do
         if up i = Not_provider then raise Exit;
         incr max_up
       done
     with Exit -> ());
    let max_down = ref 0 in
    (try
       for i = pairs - 1 downto 0 do
         if down i = Not_provider then raise Exit;
         incr max_down
       done
     with Exit -> ());
    (* ramps may overlap; one un-attested apex pair (the peer link) is
       tolerated between them *)
    if !max_up + !max_down < pairs - 1 then Invalid
    else begin
      (* affirmative Valid: every pair provably up until an apex, then
         provably down, with at most one apex pair in between *)
      let strict_up = ref 0 in
      (try
         for i = 0 to pairs - 1 do
           if up i <> Provider then raise Exit;
           incr strict_up
         done
       with Exit -> ());
      let strict_down = ref 0 in
      (try
         for i = pairs - 1 downto 0 do
           if down i <> Provider then raise Exit;
           incr strict_down
         done
       with Exit -> ());
      if !strict_up + !strict_down >= pairs - 1 then Valid else Unknown
    end
  end

let of_topology ~adoption (topo : Rz_topology.Gen.t) =
  let rng = Rz_util.Splitmix.create 177 in
  let t = create () in
  Array.iter
    (fun asn ->
      let providers = Rz_asrel.Rel_db.providers topo.rels asn in
      if providers <> [] && Rz_util.Splitmix.chance rng adoption then
        attest t ~customer:asn ~providers)
    topo.ases;
  t
