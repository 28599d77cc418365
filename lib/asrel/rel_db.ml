module Asn_set = Set.Make (Int)

type relationship =
  | A_provider_of_b
  | B_provider_of_a
  | Peers
  | Unknown

type t = {
  p2c : (Rz_net.Asn.t * Rz_net.Asn.t, unit) Hashtbl.t; (* (provider, customer) *)
  p2p : (Rz_net.Asn.t * Rz_net.Asn.t, unit) Hashtbl.t; (* normalized (min, max) *)
  providers_of : (Rz_net.Asn.t, Asn_set.t) Hashtbl.t;
  customers_of : (Rz_net.Asn.t, Asn_set.t) Hashtbl.t;
  peers_of : (Rz_net.Asn.t, Asn_set.t) Hashtbl.t;
  mutable clique : Rz_net.Asn.t list;
  cone_memo : (Rz_net.Asn.t, Asn_set.t) Hashtbl.t;
}

let create () =
  { p2c = Hashtbl.create 1024;
    p2p = Hashtbl.create 1024;
    providers_of = Hashtbl.create 1024;
    customers_of = Hashtbl.create 1024;
    peers_of = Hashtbl.create 1024;
    clique = [];
    cone_memo = Hashtbl.create 64 }

let add_to_index tbl key value =
  let existing = Option.value ~default:Asn_set.empty (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (Asn_set.add value existing)

let add_p2c t ~provider ~customer =
  if not (Hashtbl.mem t.p2c (provider, customer)) then begin
    Hashtbl.replace t.p2c (provider, customer) ();
    add_to_index t.customers_of provider customer;
    add_to_index t.providers_of customer provider;
    Hashtbl.reset t.cone_memo
  end

let add_p2p t a b =
  let key = if a <= b then (a, b) else (b, a) in
  if not (Hashtbl.mem t.p2p key) then begin
    Hashtbl.replace t.p2p key ();
    add_to_index t.peers_of a b;
    add_to_index t.peers_of b a
  end

let relationship t a b =
  if Hashtbl.mem t.p2c (a, b) then A_provider_of_b
  else if Hashtbl.mem t.p2c (b, a) then B_provider_of_a
  else if Hashtbl.mem t.p2p (if a <= b then (a, b) else (b, a)) then Peers
  else Unknown

let index_list tbl key =
  Asn_set.elements (Option.value ~default:Asn_set.empty (Hashtbl.find_opt tbl key))

let providers t asn = index_list t.providers_of asn
let customers t asn = index_list t.customers_of asn
let peers t asn = index_list t.peers_of asn

let neighbors t asn =
  Asn_set.elements
    (Asn_set.union
       (Option.value ~default:Asn_set.empty (Hashtbl.find_opt t.providers_of asn))
       (Asn_set.union
          (Option.value ~default:Asn_set.empty (Hashtbl.find_opt t.customers_of asn))
          (Option.value ~default:Asn_set.empty (Hashtbl.find_opt t.peers_of asn))))

let ases t =
  let acc = ref Asn_set.empty in
  Hashtbl.iter (fun (a, b) () -> acc := Asn_set.add a (Asn_set.add b !acc)) t.p2c;
  Hashtbl.iter (fun (a, b) () -> acc := Asn_set.add a (Asn_set.add b !acc)) t.p2p;
  Asn_set.elements !acc

let is_transit t asn = customers t asn <> []
let set_clique t clique = t.clique <- List.sort_uniq compare clique
let clique t = t.clique
let is_tier1 t asn = List.mem asn t.clique

let customer_cone t asn =
  match Hashtbl.find_opt t.cone_memo asn with
  | Some cone -> cone
  | None ->
    let rec bfs frontier cone =
      match frontier with
      | [] -> cone
      | x :: rest ->
        let fresh =
          List.filter (fun c -> not (Asn_set.mem c cone)) (customers t x)
        in
        bfs (fresh @ rest) (List.fold_left (fun s c -> Asn_set.add c s) cone fresh)
    in
    let cone = bfs [ asn ] (Asn_set.singleton asn) in
    Hashtbl.replace t.cone_memo asn cone;
    cone

let to_string t =
  let buf = Buffer.create 4096 in
  if t.clique <> [] then begin
    Buffer.add_string buf "# input clique: ";
    Buffer.add_string buf (String.concat " " (List.map string_of_int t.clique));
    Buffer.add_char buf '\n'
  end;
  let p2c = Hashtbl.fold (fun k () acc -> k :: acc) t.p2c [] in
  let p2p = Hashtbl.fold (fun k () acc -> k :: acc) t.p2p [] in
  List.iter
    (fun (p, c) -> Buffer.add_string buf (Printf.sprintf "%d|%d|-1\n" p c))
    (List.sort compare p2c);
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "%d|%d|0\n" a b))
    (List.sort compare p2p);
  Buffer.contents buf

let of_string text =
  let t = create () in
  let error = ref None in
  List.iteri
    (fun lineno line ->
      let line = Rz_util.Strings.strip line in
      if !error <> None || line = "" then ()
      else if String.length line > 0 && line.[0] = '#' then begin
        match Rz_util.Strings.split_on_string ~sep:"clique" line with
        | [ _; rest ] ->
          let rest =
            String.map (fun c -> if c = ':' then ' ' else c) rest
          in
          let asns = List.filter_map Rz_net.Asn.of_decimal (Rz_util.Strings.split_words rest) in
          if asns <> [] then set_clique t asns
        | _ -> ()
      end
      else
        match String.split_on_char '|' line with
        | [ a; b; rel ] | a :: b :: rel :: _ ->
          (match (Rz_net.Asn.of_decimal a, Rz_net.Asn.of_decimal b, Rz_util.Strings.strip rel) with
           | Some a, Some b, "-1" -> add_p2c t ~provider:a ~customer:b
           | Some a, Some b, "0" -> add_p2p t a b
           | _ ->
             error :=
               Some (Printf.sprintf "line %d: malformed relationship %S" (lineno + 1) line))
        | _ ->
          error := Some (Printf.sprintf "line %d: malformed line %S" (lineno + 1) line))
    (String.split_on_char '\n' text);
  match !error with Some e -> Error e | None -> Ok t

let load path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  of_string text

let save t path =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc
