let ccdf samples =
  let n = List.length samples in
  if n = 0 then []
  else begin
    let sorted = List.sort compare samples in
    let fn = float_of_int n in
    (* For each distinct value v, count samples >= v. *)
    let distinct = List.sort_uniq compare sorted in
    let arr = Array.of_list sorted in
    let count_ge v =
      (* binary search for first index with arr.(i) >= v *)
      let lo = ref 0 and hi = ref (Array.length arr) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if arr.(mid) < v then lo := mid + 1 else hi := mid
      done;
      Array.length arr - !lo
    in
    List.map (fun v -> (v, float_of_int (count_ge v) /. fn)) distinct
  end

let ccdf_at samples xs =
  let n = List.length samples in
  let fn = if n = 0 then 1.0 else float_of_int n in
  let sorted = Array.of_list (List.sort compare samples) in
  let count_ge v =
    let lo = ref 0 and hi = ref (Array.length sorted) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sorted.(mid) < v then lo := mid + 1 else hi := mid
    done;
    Array.length sorted - !lo
  in
  List.map (fun x -> (x, float_of_int (count_ge x) /. fn)) xs

let percentile p samples =
  match List.sort compare samples with
  | [] -> invalid_arg "Stats_util.percentile: empty"
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    List.nth sorted (rank - 1)

let mean samples =
  match samples with
  | [] -> 0.0
  | _ ->
    float_of_int (List.fold_left ( + ) 0 samples) /. float_of_int (List.length samples)

let fraction pred l =
  match l with
  | [] -> 0.0
  | _ ->
    float_of_int (List.length (List.filter pred l)) /. float_of_int (List.length l)
