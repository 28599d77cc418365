module Splitmix = Rz_util.Splitmix
module Prefix = Rz_net.Prefix
module Gen = Rz_topology.Gen

type config = {
  seed : int;
  adoption : float;
  wrong_maxlen_prob : float;
  stale_origin_prob : float;
  hostile_covering_prob : float;
}

let default =
  { seed = 7;
    adoption = 0.8;
    wrong_maxlen_prob = 0.05;
    stale_origin_prob = 0.05;
    hostile_covering_prob = 0.03 }

type stats = {
  n_clean : int;
  n_wrong_maxlen : int;
  n_stale : int;
  n_hostile : int;
}

type result = {
  roas : Roa.roa list;
  stats : stats;
}

(* The covering aggregate [shorten] bits up; the constructors re-mask the
   host bits so the address stays canonical. *)
let parent prefix shorten =
  let len = max 0 (prefix.Prefix.len - shorten) in
  match prefix.Prefix.addr with
  | Prefix.V4 a -> Prefix.v4 a len
  | Prefix.V6 a -> Prefix.v6 a len

(* Uniform AS other than [asn]; the classic replace-by-last trick keeps
   the draw single-sample and deterministic. *)
let other_as rng (topo : Gen.t) asn =
  let n = Array.length topo.ases in
  let j = Splitmix.int rng (n - 1) in
  if topo.ases.(j) = asn then topo.ases.(n - 1) else topo.ases.(j)

let generate ?(config = default) (topo : Gen.t) =
  let rng = Splitmix.create config.seed in
  let roas = ref [] in
  let n_clean = ref 0 and n_wrong_maxlen = ref 0 in
  let n_stale = ref 0 and n_hostile = ref 0 in
  let multi_as = Array.length topo.ases > 1 in
  let emit roa = roas := roa :: !roas in
  (* signing sweep: each adopting AS covers its originated prefixes *)
  Array.iter
    (fun asn ->
      if Splitmix.chance rng config.adoption then
        List.iter
          (fun prefix ->
            let len = prefix.Prefix.len in
            if Splitmix.chance rng config.wrong_maxlen_prob && len >= 2 then begin
              (* aggregate signed too tight: covers the announcement but
                 authorizes one bit less than what is announced *)
              incr n_wrong_maxlen;
              emit { Roa.prefix = parent prefix 2; max_length = len - 1; origin = asn }
            end
            else if Splitmix.chance rng config.stale_origin_prob && multi_as then begin
              incr n_stale;
              emit
                { Roa.prefix; max_length = len; origin = other_as rng topo asn }
            end
            else begin
              incr n_clean;
              emit { Roa.prefix; max_length = len; origin = asn }
            end)
          (Gen.prefixes_of topo asn))
    topo.ases;
  (* hostile sweep: attackers sign covering ROAs over victim space,
     independent of whether the victim adopted *)
  Array.iter
    (fun asn ->
      List.iter
        (fun prefix ->
          if
            Splitmix.chance rng config.hostile_covering_prob
            && prefix.Prefix.len >= 1 && multi_as
          then begin
            incr n_hostile;
            let cover = parent prefix 1 in
            emit
              { Roa.prefix = cover;
                max_length = Prefix.max_len cover;
                origin = other_as rng topo asn }
          end)
        (Gen.prefixes_of topo asn))
    topo.ases;
  { roas = List.rev !roas;
    stats =
      { n_clean = !n_clean;
        n_wrong_maxlen = !n_wrong_maxlen;
        n_stale = !n_stale;
        n_hostile = !n_hostile } }

let of_topology ~adoption topo =
  Roa.of_list
    (generate
       ~config:
         { seed = 99;
           adoption;
           wrong_maxlen_prob = 0.;
           stale_origin_prob = 0.;
           hostile_covering_prob = 0. }
       topo)
      .roas
