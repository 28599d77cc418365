open Regex_ast

type env = {
  asn_in_set : string -> Rz_net.Asn.t -> bool;
  peer_as : Rz_net.Asn.t option;
}

let default_env = { asn_in_set = (fun _ _ -> false); peer_as = None }

let rec term_matches env term asn =
  match term with
  | Asn n -> n = asn
  | Asn_range (lo, hi) -> asn >= lo && asn <= hi
  | As_set name -> env.asn_in_set name asn
  | Peer_as -> (match env.peer_as with Some p -> p = asn | None -> false)
  | Wildcard -> true
  | Class (negated, terms) ->
    let inside = List.exists (fun t -> term_matches env t asn) terms in
    if negated then not inside else inside

(* Continuation-passing backtracking matcher. [k i] is invoked with every
   path index reachable after matching the node starting at [i]; it
   returns true to accept (which short-circuits the search). Star nodes
   only recurse when they consumed input, so zero-width loops terminate. *)
let matches ?(env = default_env) regex path =
  let n = Array.length path in
  let rec mtch node i (k : int -> bool) =
    match node with
    | Empty -> k i
    | Bol -> i = 0 && k i
    | Eol -> i = n && k i
    | Term t -> i < n && term_matches env t path.(i) && k (i + 1)
    | Seq (a, b) -> mtch a i (fun j -> mtch b j k)
    | Alt (a, b) -> mtch a i k || mtch b i k
    | Opt t -> mtch t i k || k i
    | Star t ->
      let rec loop i = k i || mtch t i (fun j -> j > i && loop j) in
      loop i
    | Plus t -> mtch t i (fun j -> mtch (Star t) j k)
    | Repeat (t, m, bound) ->
      let rec need count i =
        if count = 0 then optional bound i
        else mtch t i (fun j -> need (count - 1) j)
      and optional bound i =
        match bound with
        | None -> mtch (Star t) i k
        | Some total ->
          if total < m then false
          else
            let rec upto left i =
              k i || (left > 0 && mtch t i (fun j -> j > i && upto (left - 1) j))
            in
            upto (total - m) i
      in
      need m i
    | Tilde_star term ->
      (* zero or more consecutive occurrences of the SAME ASN, each
         matching the term *)
      k i
      ||
      (i < n && term_matches env term path.(i)
       &&
       let pinned = path.(i) in
       let rec run j = k j || (j < n && path.(j) = pinned && run (j + 1)) in
       run (i + 1))
    | Tilde_plus term ->
      i < n && term_matches env term path.(i)
      &&
      let pinned = path.(i) in
      let rec run j = k j || (j < n && path.(j) = pinned && run (j + 1)) in
      run (i + 1)
  in
  (* Unanchored search: try every start position. Anchors inside the regex
     still pin to the real ends. *)
  let accept _ = true in
  let rec from i = (i <= n && mtch regex i accept) || (i < n && from (i + 1)) in
  from 0

(* ------------------------------------------------------------------ *)
(* The paper's explicit symbol-string construction, the oracle of the   *)
(* differential tests.                                                  *)
(* ------------------------------------------------------------------ *)

(* Collect the distinct AS tokens of the regex; each becomes a symbol. *)
let collect_terms regex =
  let acc = ref [] in
  let add t = if not (List.mem t !acc) then acc := t :: !acc in
  let rec go = function
    | Empty | Bol | Eol -> ()
    | Term t -> add t
    | Seq (a, b) | Alt (a, b) -> go a; go b
    | Star t | Plus t | Opt t | Repeat (t, _, _) -> go t
    | Tilde_star t | Tilde_plus t -> add t
  in
  go regex;
  List.rev !acc

let matches_product regex path =
  let terms = Array.of_list (collect_terms regex) in
  let nsym = Array.length terms in
  (* N_j: the set of symbols ASN j can match, plus a sentinel symbol
     [nsym] meaning "matches no token" so positions with an empty set
     still contribute exactly one symbol string. *)
  let symbol_sets =
    Array.map
      (fun asn ->
        let matching = ref [] in
        for s = nsym - 1 downto 0 do
          if term_matches default_env terms.(s) asn then matching := s :: !matching
        done;
        if !matching = [] then [ nsym ] else !matching)
      path
  in
  let total =
    Array.fold_left (fun acc set -> acc * List.length set) 1 symbol_sets
  in
  if total > 100_000 then
    invalid_arg
      (Printf.sprintf "matches_product: %d symbol strings exceed limit 100000" total);
  (* Match one symbol string against the symbolic regex: identical matcher,
     but a term matches symbol s iff the term IS terms.(s). *)
  let n = Array.length path in
  let rec mtch symbols node i k =
    match node with
    | Empty -> k i
    | Bol -> i = 0 && k i
    | Eol -> i = n && k i
    | Term t -> i < n && symbols.(i) < nsym && terms.(symbols.(i)) = t && k (i + 1)
    | Seq (a, b) -> mtch symbols a i (fun j -> mtch symbols b j k)
    | Alt (a, b) -> mtch symbols a i k || mtch symbols b i k
    | Opt t -> mtch symbols t i k || k i
    | Star t ->
      let rec loop i = k i || mtch symbols t i (fun j -> j > i && loop j) in
      loop i
    | Plus t -> mtch symbols t i (fun j -> mtch symbols (Star t) j k)
    | Repeat (t, m, bound) ->
      let rec need count i =
        if count = 0 then
          match bound with
          | None -> mtch symbols (Star t) i k
          | Some total ->
            let rec upto left i =
              k i || (left > 0 && mtch symbols t i (fun j -> j > i && upto (left - 1) j))
            in
            if total < m then false else upto (total - m) i
        else mtch symbols t i (fun j -> need (count - 1) j)
      in
      need m i
    | Tilde_star term ->
      k i
      ||
      (i < n && symbols.(i) < nsym && terms.(symbols.(i)) = term
       &&
       let pinned = path.(i) in
       let rec run j = k j || (j < n && path.(j) = pinned && run (j + 1)) in
       run (i + 1))
    | Tilde_plus term ->
      i < n && symbols.(i) < nsym && terms.(symbols.(i)) = term
      &&
      let pinned = path.(i) in
      let rec run j = k j || (j < n && path.(j) = pinned && run (j + 1)) in
      run (i + 1)
  in
  (* Enumerate the Cartesian product. *)
  let symbols = Array.make n 0 in
  let rec enumerate pos =
    if pos = n then begin
      let accept _ = true in
      let rec from i =
        (i <= n && mtch symbols regex i accept) || (i < n && from (i + 1))
      in
      from 0
    end
    else
      List.exists
        (fun s ->
          symbols.(pos) <- s;
          enumerate (pos + 1))
        symbol_sets.(pos)
  in
  if n = 0 then
    let accept _ = true in
    mtch [||] regex 0 accept
  else enumerate 0
