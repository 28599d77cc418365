open Regex_ast

(* NFA edges: epsilon, a single AS token, an anchor, or a pinned
   same-ASN run (the ~ operators, which consume 0..n or 1..n copies of
   one identical ASN matching the token). *)
type edge =
  | Eps of int
  | Tok of term * int
  | Anchor_bol of int
  | Anchor_eol of int
  | Tilde of term * bool * int  (* term, at_least_one, target *)

type t = {
  edges : edge list array;  (* state -> outgoing edges *)
  start : int;
  accept : int;
  capped : bool;            (* state budget exceeded; matches nothing *)
}

(* Hostile-input bound: a {m,n} repetition bomb (the paper's Section-4
   pathological policies) would otherwise expand to millions of states —
   and the expansion itself recurses over a left-nested Seq spine that
   deep enough input turns into a stack overflow. Patterns whose estimated
   state count exceeds the cap are not compiled at all: the resulting
   matcher abstains (rejects everything), which keeps verification
   conservative — a capped filter can never produce Verified. *)
let max_states = 10_000

let c_capped = Rz_obs.Obs.Counter.make "nfa.capped"

let is_capped t = t.capped

let compile_uncapped ast =
  let edges = ref [] and next = ref 0 in
  let fresh () =
    let s = !next in
    incr next;
    s
  in
  let add state edge = edges := (state, edge) :: !edges in
  (* returns (entry, exit) *)
  let rec build = function
    | Empty ->
      let s = fresh () in
      (s, s)
    | Bol ->
      let s = fresh () and e = fresh () in
      add s (Anchor_bol e);
      (s, e)
    | Eol ->
      let s = fresh () and e = fresh () in
      add s (Anchor_eol e);
      (s, e)
    | Term term ->
      let s = fresh () and e = fresh () in
      add s (Tok (term, e));
      (s, e)
    | Seq (a, b) ->
      let sa, ea = build a in
      let sb, eb = build b in
      add ea (Eps sb);
      (sa, eb)
    | Alt (a, b) ->
      let s = fresh () and e = fresh () in
      let sa, ea = build a in
      let sb, eb = build b in
      add s (Eps sa);
      add s (Eps sb);
      add ea (Eps e);
      add eb (Eps e);
      (s, e)
    | Star inner ->
      let s = fresh () and e = fresh () in
      let si, ei = build inner in
      add s (Eps si);
      add s (Eps e);
      add ei (Eps si);
      add ei (Eps e);
      (s, e)
    | Plus inner -> build (Seq (inner, Star inner))
    | Opt inner -> build (Alt (inner, Empty))
    | Repeat (inner, m, bound) ->
      let required = List.init m (fun _ -> inner) in
      let optional =
        match bound with
        | None -> [ Star inner ]
        | Some n -> List.init (max 0 (n - m)) (fun _ -> Opt inner)
      in
      let seq =
        match required @ optional with
        | [] -> Empty
        | first :: rest -> List.fold_left (fun acc x -> Seq (acc, x)) first rest
      in
      build seq
    | Tilde_star term ->
      let s = fresh () and e = fresh () in
      add s (Tilde (term, false, e));
      (s, e)
    | Tilde_plus term ->
      let s = fresh () and e = fresh () in
      add s (Tilde (term, true, e));
      (s, e)
  in
  let start, exit_state = build ast in
  let accept = fresh () in
  add exit_state (Eps accept);
  let arr = Array.make !next [] in
  List.iter (fun (state, edge) -> arr.(state) <- edge :: arr.(state)) !edges;
  { edges = arr; start; accept; capped = false }

let compile ast =
  if Regex_ast.state_estimate ast > max_states then begin
    Rz_obs.Obs.Counter.incr c_capped;
    { edges = [||]; start = 0; accept = -1; capped = true }
  end
  else compile_uncapped ast

let state_count t = Array.length t.edges

module Cache = struct
  (* ASTs are pure structural data (no closures, no cycles), so the
     polymorphic hash/equality of the generic Hashtbl hashcons them
     correctly: two textually identical patterns share one compiled
     matcher. The cap decision happens inside [compile] exactly once per
     distinct pattern, so [nfa.capped] records refusals per pattern, not
     per evaluation. *)
  type cache = { tbl : (Regex_ast.t, t) Hashtbl.t }

  let c_compile_hits = Rz_obs.Obs.Counter.make "nfa.compile_hits"

  let create () = { tbl = Hashtbl.create 64 }

  let get cache ast =
    match Hashtbl.find_opt cache.tbl ast with
    | Some nfa ->
      Rz_obs.Obs.Counter.incr c_compile_hits;
      nfa
    | None ->
      let nfa = compile ast in
      Hashtbl.replace cache.tbl ast nfa;
      nfa

  let size cache = Hashtbl.length cache.tbl

  let remove cache ast = Hashtbl.remove cache.tbl ast
end

(* Subset simulation. States are tracked together with anchor context:
   whether the run may still claim position-0 start. We simulate once per
   possible start offset to keep anchors simple (paths are short). Tilde
   edges are expanded eagerly per position: from position i they can jump
   to any j >= i (or > i when at_least_one) such that path.(i..j-1) are
   all the same ASN matching the term — so they produce (state, position)
   pairs beyond the uniform frontier, which the worklist handles. *)
let matches ?(env = Regex_match.default_env) t path =
  if t.capped then false
  else
  let n = Array.length path in
  let run start_pos =
    (* reachable: set of (state, position) *)
    let seen = Hashtbl.create 64 in
    let queue = Queue.create () in
    let push state pos =
      if not (Hashtbl.mem seen (state, pos)) then begin
        Hashtbl.replace seen (state, pos) ();
        Queue.add (state, pos) queue
      end
    in
    push t.start start_pos;
    let accepted = ref false in
    while not (Queue.is_empty queue) do
      let state, pos = Queue.pop queue in
      if state = t.accept then accepted := true
      else
        List.iter
          (fun edge ->
            match edge with
            | Eps target -> push target pos
            | Anchor_bol target -> if pos = 0 then push target pos
            | Anchor_eol target -> if pos = n then push target pos
            | Tok (term, target) ->
              if pos < n && Regex_match.term_matches env term path.(pos) then
                push target (pos + 1)
            | Tilde (term, at_least_one, target) ->
              if not at_least_one then push target pos;
              if pos < n && Regex_match.term_matches env term path.(pos) then begin
                let pinned = path.(pos) in
                let j = ref (pos + 1) in
                push target !j;
                while !j < n && path.(!j) = pinned do
                  incr j;
                  push target !j
                done
              end)
          t.edges.(state)
    done;
    !accepted
  in
  let rec from i = (i <= n && run i) || (i < n && from (i + 1)) in
  from 0
