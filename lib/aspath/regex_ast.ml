type term =
  | Asn of Rz_net.Asn.t
  | Asn_range of Rz_net.Asn.t * Rz_net.Asn.t
  | As_set of string
  | Peer_as
  | Wildcard
  | Class of bool * term list

type t =
  | Empty
  | Term of term
  | Bol
  | Eol
  | Seq of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t
  | Repeat of t * int * int option
  | Tilde_star of term
  | Tilde_plus of term

let rec term_to_string = function
  | Asn n -> Rz_net.Asn.to_string n
  | Asn_range (lo, hi) ->
    Printf.sprintf "%s-%s" (Rz_net.Asn.to_string lo) (Rz_net.Asn.to_string hi)
  | As_set name -> name
  | Peer_as -> "PeerAS"
  | Wildcard -> "."
  | Class (negated, terms) ->
    Printf.sprintf "[%s%s]" (if negated then "^" else "")
      (String.concat " " (List.map term_to_string terms))

let rec to_string = function
  | Empty -> ""
  | Term t -> term_to_string t
  | Bol -> "^"
  | Eol -> "$"
  | Seq (a, b) ->
    let sa = to_string a and sb = to_string b in
    if sa = "" then sb else if sb = "" then sa else sa ^ " " ^ sb
  | Alt (a, b) -> Printf.sprintf "(%s | %s)" (to_string a) (to_string b)
  | Star t -> atom_string t ^ "*"
  | Plus t -> atom_string t ^ "+"
  | Opt t -> atom_string t ^ "?"
  | Repeat (t, m, None) -> Printf.sprintf "%s{%d,}" (atom_string t) m
  | Repeat (t, m, Some n) ->
    if m = n then Printf.sprintf "%s{%d}" (atom_string t) m
    else Printf.sprintf "%s{%d,%d}" (atom_string t) m n
  | Tilde_star t -> term_to_string t ^ "~*"
  | Tilde_plus t -> term_to_string t ^ "~+"

and atom_string t =
  match t with
  | Term _ | Bol | Eol | Empty -> to_string t
  | _ -> "(" ^ to_string t ^ ")"

(* Saturating estimate of the Thompson-NFA state count {!Regex_nfa.compile}
   would allocate. Repeat nodes multiply: [{m,n}] expands to n copies of the
   inner automaton, so hostile regexes like [AS1{500000}] or nested
   repetitions can request exponentially many states from linear text. The
   estimate is computed on the un-expanded AST (always small), so callers
   can refuse pathological patterns before any allocation happens. *)
let state_estimate ast =
  let cap = max_int / 4 in
  let sat a b = if a >= cap - b then cap else a + b in
  let satmul a b = if a <> 0 && b >= cap / a then cap else a * b in
  let rec go = function
    | Empty -> 1
    | Bol | Eol | Term _ | Tilde_star _ | Tilde_plus _ -> 2
    | Seq (a, b) -> sat (go a) (go b)
    | Alt (a, b) -> sat 2 (sat (go a) (go b))
    | Star inner | Opt inner -> sat 2 (go inner)
    | Plus inner -> sat 2 (satmul 2 (go inner))
    | Repeat (inner, m, bound) ->
      let per_copy = sat 2 (go inner) in
      let copies = match bound with None -> max 1 m + 1 | Some n -> max 1 (max m n) in
      sat 2 (satmul copies per_copy)
  in
  go ast

let terms regex =
  let rec term acc = function
    | Class (_, members) -> List.fold_right (fun t acc -> term acc t) members acc
    | t -> t :: acc
  and go acc = function
    | Empty | Bol | Eol -> acc
    | Term t | Tilde_star t | Tilde_plus t -> term acc t
    | Seq (a, b) | Alt (a, b) -> go (go acc b) a
    | Star a | Plus a | Opt a | Repeat (a, _, _) -> go acc a
  in
  go [] regex

let term_uses_future_work = function
  | Asn_range _ -> true
  | Class (_, terms) -> List.exists (function Asn_range _ -> true | _ -> false) terms
  | Asn _ | As_set _ | Peer_as | Wildcard -> false

let rec uses_future_work_features = function
  | Empty | Bol | Eol -> false
  | Term t -> term_uses_future_work t
  | Seq (a, b) | Alt (a, b) -> uses_future_work_features a || uses_future_work_features b
  | Star t | Plus t | Opt t | Repeat (t, _, _) -> uses_future_work_features t
  | Tilde_star _ | Tilde_plus _ -> true
