module Ir = Rz_ir.Ir

type cluster = {
  maintainers : string list;
  asns : Rz_net.Asn.t list;
}

(* Union-find over ASNs, linked through shared maintainer handles. *)
let clusters db =
  let ir = Rz_irr.Db.ir db in
  let parent : (Rz_net.Asn.t, Rz_net.Asn.t) Hashtbl.t = Hashtbl.create 256 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | Some p when p <> x ->
      let root = find p in
      Hashtbl.replace parent x root;
      root
    | _ ->
      if not (Hashtbl.mem parent x) then Hashtbl.replace parent x x;
      x
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  let by_mnt : (string, Rz_net.Asn.t list) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.iter
    (fun asn (an : Ir.aut_num) ->
      List.iter
        (fun mnt ->
          let key = Rz_util.Strings.uppercase mnt in
          let existing = Option.value ~default:[] (Hashtbl.find_opt by_mnt key) in
          Hashtbl.replace by_mnt key (asn :: existing))
        an.mnt_by)
    ir.aut_nums;
  Hashtbl.iter
    (fun _ asns ->
      match asns with
      | first :: rest -> List.iter (union first) rest
      | [] -> ())
    by_mnt;
  (* materialize components *)
  let members : (Rz_net.Asn.t, Rz_net.Asn.t list) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun asn _ ->
      let root = find asn in
      let existing = Option.value ~default:[] (Hashtbl.find_opt members root) in
      Hashtbl.replace members root (asn :: existing))
    parent;
  let mnt_of : (Rz_net.Asn.t, string list) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.iter
    (fun asn (an : Ir.aut_num) ->
      Hashtbl.replace mnt_of asn (List.map Rz_util.Strings.uppercase an.mnt_by))
    ir.aut_nums;
  Hashtbl.fold
    (fun _ asns acc ->
      if List.length asns < 2 then acc
      else begin
        let asns = List.sort_uniq compare asns in
        let maintainers =
          List.concat_map
            (fun asn -> Option.value ~default:[] (Hashtbl.find_opt mnt_of asn))
            asns
          |> List.sort_uniq compare
        in
        { maintainers; asns } :: acc
      end)
    members []
  |> List.sort (fun a b -> compare (List.length b.asns) (List.length a.asns))
