(* A node at depth d is reached by one specific bit path, and an entry
   terminates at depth = prefix length; since [Prefix.t] is canonical
   (host bits zeroed), every binding terminating at a node carries the
   *same* prefix. The compact representation stores that prefix once per
   occupied node and keeps only the bare values in the per-node list —
   at paper scale (millions of route objects in one trie) this saves a
   tuple cons per binding — reconstructing the (prefix, value) pairs on
   read. *)

type 'a node = {
  mutable zero : 'a node option;
  mutable one : 'a node option;
  mutable prefix : Prefix.t option; (* Some iff values <> [] *)
  mutable values : 'a list; (* bindings terminating here, newest first *)
}

type 'a t = {
  v4_root : 'a node;
  v6_root : 'a node;
  mutable count : int;
}

let fresh_node () = { zero = None; one = None; prefix = None; values = [] }
let create () = { v4_root = fresh_node (); v6_root = fresh_node (); count = 0 }
let root t p = if Prefix.is_v4 p then t.v4_root else t.v6_root

(* Prepend this node's (prefix, value) pairs onto [acc], reversing the
   stored order — the same shape [List.rev_append node.values acc] had
   when the pairs were stored whole. *)
let rev_pairs node acc =
  match node.prefix with
  | None -> acc
  | Some p -> List.fold_left (fun acc v -> (p, v) :: acc) acc node.values

let add t prefix value =
  let rec descend node depth =
    if depth = prefix.Prefix.len then begin
      node.prefix <- Some prefix;
      node.values <- value :: node.values
    end
    else begin
      let child =
        if Prefix.bit prefix depth then
          match node.one with
          | Some c -> c
          | None ->
            let c = fresh_node () in
            node.one <- Some c;
            c
        else
          match node.zero with
          | Some c -> c
          | None ->
            let c = fresh_node () in
            node.zero <- Some c;
            c
      in
      descend child (depth + 1)
    end
  in
  descend (root t prefix) 0;
  t.count <- t.count + 1

let find_node t prefix =
  let rec descend node depth =
    if depth = prefix.Prefix.len then Some node
    else
      let child = if Prefix.bit prefix depth then node.one else node.zero in
      match child with None -> None | Some c -> descend c (depth + 1)
  in
  descend (root t prefix) 0

let exact t prefix =
  let rec descend node depth =
    if depth = prefix.Prefix.len then node.values
    else
      let child = if Prefix.bit prefix depth then node.one else node.zero in
      match child with None -> [] | Some c -> descend c (depth + 1)
  in
  descend (root t prefix) 0

(* Bind behind every existing binding: the place [add] would have given
   the value had it been added before all of them. *)
let add_last t prefix value =
  match find_node t prefix with
  | Some node when node.values <> [] ->
    node.values <- node.values @ [ value ];
    t.count <- t.count + 1
  | Some _ | None -> add t prefix value

let is_dead node = node.values = [] && node.zero = None && node.one = None

(* Unlink each node the removal leaves with no binding and no child, up
   to the first that keeps one, so the trie holds no dead chains. *)
let remove t prefix matches =
  let rec descend node depth =
    if depth = prefix.Prefix.len then begin
      let kept = List.filter (fun v -> not (matches v)) node.values in
      t.count <- t.count - (List.length node.values - List.length kept);
      node.values <- kept;
      if kept = [] then node.prefix <- None
    end
    else if Prefix.bit prefix depth then
      Option.iter
        (fun c ->
          descend c (depth + 1);
          if is_dead c then node.one <- None)
        node.one
    else
      Option.iter
        (fun c ->
          descend c (depth + 1);
          if is_dead c then node.zero <- None)
        node.zero
  in
  descend (root t prefix) 0

let copy t =
  let rec node n =
    { zero = Option.map node n.zero; one = Option.map node n.one;
      prefix = n.prefix; values = n.values }
  in
  { v4_root = node t.v4_root; v6_root = node t.v6_root; count = t.count }

let covering t prefix =
  let rec descend node depth acc =
    let acc = rev_pairs node acc in
    if depth = prefix.Prefix.len then acc
    else
      let child = if Prefix.bit prefix depth then node.one else node.zero in
      match child with None -> acc | Some c -> descend c (depth + 1) acc
  in
  List.rev (descend (root t prefix) 0 [])

let length t = t.count

let iter f t =
  let rec walk node =
    (match node.prefix with
     | None -> ()
     | Some p -> List.iter (fun v -> f p v) node.values);
    Option.iter walk node.zero;
    Option.iter walk node.one
  in
  walk t.v4_root;
  walk t.v6_root

let fold f t init =
  let acc = ref init in
  iter (fun p v -> acc := f p v !acc) t;
  !acc
