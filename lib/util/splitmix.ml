type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }
let copy t = { state = t.state }

let gamma = 0x9E3779B97F4A7C15L

let next t =
  t.state <- Int64.add t.state gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound <= 0";
  (* Take the top bits; modulo bias is negligible for our bounds (< 2^40). *)
  let raw = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  raw mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Splitmix.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t =
  let raw = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  raw /. 9007199254740992.0 (* 2^53 *)

let chance t p = float t < p
let choose t arr = arr.(int t (Array.length arr))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Splitmix.choose_list: empty"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t k arr =
  let n = Array.length arr in
  if k >= n then Array.copy arr
  else begin
    let copy = Array.copy arr in
    shuffle t copy;
    Array.sub copy 0 k
  end

let weighted t choices =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 choices in
  if total <= 0.0 then invalid_arg "Splitmix.weighted: non-positive total weight";
  let target = float t *. total in
  let rec pick acc = function
    | [] -> invalid_arg "Splitmix.weighted: empty"
    | [ (_, x) ] -> x
    | (w, x) :: rest -> if acc +. w > target then x else pick (acc +. w) rest
  in
  pick 0.0 choices

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Splitmix.geometric";
  let u = Stdlib.max 1e-12 (float t) in
  int_of_float (Float.of_int 0 +. floor (log u /. log (1.0 -. p)))

let pareto_int t ~alpha ~xmin ~max =
  let u = Stdlib.max 1e-12 (float t) in
  let x = Float.of_int xmin /. (u ** (1.0 /. alpha)) in
  let x = int_of_float x in
  if x > max then max else if x < xmin then xmin else x
