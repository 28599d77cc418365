type t = {
  collector : string;
  routes : Route.t list;
}

let render add ~collector run =
  add ("# collector: " ^ collector ^ "\n");
  run (fun r -> add (Route.to_line r); add "\n")

let write oc ~collector run = render (output_string oc) ~collector run

let to_string t =
  let buf = Buffer.create 4096 in
  render (Buffer.add_string buf) ~collector:t.collector (fun emit -> List.iter emit t.routes);
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

let load ~collector path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  of_string ~collector text
