type t = {
  collector : string;
  routes : Route.t list;
}

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "# collector: %s\n" t.collector);
  List.iter
    (fun r ->
      Buffer.add_string buf (Route.to_line r);
      Buffer.add_char buf '\n')
    t.routes;
  Buffer.contents buf

let lines text =
  String.split_on_char '\n' text
  |> List.map Rz_util.Strings.strip
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let of_string ~collector text =
  let rec go acc = function
    | [] -> Ok { collector; routes = List.rev acc }
    | line :: rest ->
      (match Route.of_line line with
       | Ok r -> go (r :: acc) rest
       | Error e -> Error e)
  in
  go [] (lines text)

let save t path =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let load ~collector path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  of_string ~collector text
