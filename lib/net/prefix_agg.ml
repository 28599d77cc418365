let parent (p : Prefix.t) =
  if p.len = 0 then None
  else
    Some
      (match p.addr with
       | Prefix.V4 a -> Prefix.v4 a (p.len - 1)
       | Prefix.V6 a -> Prefix.v6 a (p.len - 1))

let sibling (p : Prefix.t) =
  if p.len = 0 then None
  else
    Some
      (match p.addr with
       | Prefix.V4 a ->
         let flipped = a lxor (1 lsl (32 - p.len)) in
         Prefix.v4 flipped p.len
       | Prefix.V6 (hi, lo) ->
         if p.len <= 64 then
           Prefix.v6 (Int64.logxor hi (Int64.shift_left 1L (64 - p.len)), lo) p.len
         else Prefix.v6 (hi, Int64.logxor lo (Int64.shift_left 1L (128 - p.len))) p.len)

(* [stack] holds the output so far, last prefix on top: disjoint and in
   Prefix.compare order. A covering prefix sorts before everything it
   contains, so only the top can cover the next input; and a prefix pushed
   after its lower sibling lands right on top of it, so merging the top
   two until they stop being siblings leaves no sibling pair anywhere. *)
let rec merge_top = function
  | hi :: lo :: below as stack -> (
    match (sibling hi, parent hi) with
    | Some s, Some up when Prefix.equal s lo -> merge_top (up :: below)
    | _ -> stack)
  | stack -> stack

let aggregate prefixes =
  let push stack p =
    match stack with
    | top :: _ when Prefix.contains top p -> stack
    | _ -> merge_top (p :: stack)
  in
  List.rev (List.fold_left push [] (List.sort_uniq Prefix.compare prefixes))

let covers_same_space a b = List.equal Prefix.equal (aggregate a) (aggregate b)
