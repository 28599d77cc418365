module Ir = Rz_ir.Ir

type row = {
  irr : string;
  aut_nums : int;
  as_sets : int;
  route_sets : int;
  routes : int;
}

type t = {
  rows : row list;
  shadowed_routes : int;
}

let compute ~table1 db =
  let ir = Rz_irr.Db.ir db in
  let counts : (string, row) Hashtbl.t = Hashtbl.create 13 in
  let get irr =
    match Hashtbl.find_opt counts irr with
    | Some row -> row
    | None ->
      let row = { irr; aut_nums = 0; as_sets = 0; route_sets = 0; routes = 0 } in
      Hashtbl.replace counts irr row;
      row
  in
  Hashtbl.iter
    (fun _ (an : Ir.aut_num) ->
      let row = get an.source in
      Hashtbl.replace counts an.source { row with aut_nums = row.aut_nums + 1 })
    ir.aut_nums;
  Hashtbl.iter
    (fun _ (s : Ir.as_set) ->
      let row = get s.source in
      Hashtbl.replace counts s.source { row with as_sets = row.as_sets + 1 })
    ir.as_sets;
  Hashtbl.iter
    (fun _ (s : Ir.route_set) ->
      let row = get s.source in
      Hashtbl.replace counts s.source { row with route_sets = row.route_sets + 1 })
    ir.route_sets;
  Ir.iter_routes ir
    (fun (r : Ir.route_obj) ->
      let source = Ir.route_source ir r in
      let row = get source in
      Hashtbl.replace counts source { row with routes = row.routes + 1 });
  (* Table 1's raw route objects against those the merge kept *)
  let raw_routes =
    List.fold_left (fun acc (r : Usage.table1_row) -> acc + r.n_route) 0 table1
  in
  let owned_routes = Ir.n_route_objs ir in
  let extra_sources =
    Hashtbl.fold
      (fun irr _ acc ->
        if List.mem irr Rz_irr.Db.priority_order then acc else irr :: acc)
      counts []
    |> List.sort compare
  in
  let rows =
    List.map
      (fun irr ->
        Option.value
          ~default:{ irr; aut_nums = 0; as_sets = 0; route_sets = 0; routes = 0 }
          (Hashtbl.find_opt counts irr))
      (Rz_irr.Db.priority_order @ extra_sources)
  in
  { rows; shadowed_routes = max 0 (raw_routes - owned_routes) }
