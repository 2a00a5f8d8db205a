module Dist = Bn_util.Dist
module Bayesian = Bn_bayesian.Bayesian

type t = {
  base : Bayesian.t;
  mediate : int array -> int array Dist.t;
}

type deviation = {
  report : int -> int;
  act : int -> int -> int;
}

let honest_deviation = { report = Fun.id; act = (fun _ rec_ -> rec_) }

let utilities_under t deviators =
  let n = Bayesian.n_players t.base in
  let dev i = match List.assoc_opt i deviators with Some d -> d | None -> honest_deviation in
  let total = Array.make n 0.0 in
  List.iter
    (fun (types, p_ty) ->
      let reported = Array.init n (fun i -> (dev i).report types.(i)) in
      List.iter
        (fun (recs, p_rec) ->
          let acts = Array.init n (fun i -> (dev i).act types.(i) recs.(i)) in
          let u = Bayesian.utility t.base ~types ~acts in
          for i = 0 to n - 1 do
            total.(i) <- total.(i) +. (p_ty *. p_rec *. u.(i))
          done)
        (Dist.to_list (t.mediate reported)))
    (Dist.to_list (Bayesian.prior t.base));
  total

let honest_utilities t = utilities_under t []

let honest_outcome t =
  Dist.bind (Bayesian.prior t.base) (fun types ->
      Dist.map (fun recs -> (types, recs)) (t.mediate types))

let outcome_for_types t types = t.mediate types

(* Enumerate all functions from [0, dom) to [0, cod) as arrays. *)
let all_maps dom cod = Bn_util.Combin.profiles (Array.make dom cod)

let all_deviations t ~player =
  let ntypes = Bayesian.num_types t.base player in
  let nacts = Bayesian.num_actions t.base player in
  let reports = all_maps ntypes ntypes in
  (* act: type × recommendation → action, flattened as type*nacts + rec *)
  let acts = all_maps (ntypes * nacts) nacts in
  List.concat_map
    (fun r ->
      List.map
        (fun a ->
          {
            report = (fun ty -> r.(ty));
            act = (fun ty rec_ -> a.((ty * nacts) + rec_));
          })
        acts)
    reports

let is_truthful_equilibrium ?(eps = 1e-9) t =
  let n = Bayesian.n_players t.base in
  let base_u = honest_utilities t in
  let ok = ref true in
  for i = 0 to n - 1 do
    List.iter
      (fun d ->
        let u = utilities_under t [ (i, d) ] in
        if u.(i) > base_u.(i) +. eps then ok := false)
      (all_deviations t ~player:i)
  done;
  !ok

(* Joint deviations of a coalition: cartesian product of per-member
   deviation lists. *)
let rec joint = function
  | [] -> [ [] ]
  | (i, ds) :: rest ->
    let tails = joint rest in
    List.concat_map (fun d -> List.map (fun tail -> (i, d) :: tail) tails) ds

let check_resilience ?(eps = 1e-9) t ~k =
  let n = Bayesian.n_players t.base in
  let base_u = honest_utilities t in
  let witness = ref None in
  List.iter
    (fun coalition ->
      if !witness = None then
        let options = List.map (fun i -> (i, all_deviations t ~player:i)) coalition in
        List.iter
          (fun assignment ->
            if !witness = None then begin
              let u = utilities_under t assignment in
              if List.exists (fun i -> u.(i) > base_u.(i) +. eps) coalition then
                witness := Some (coalition, u)
            end)
          (joint options))
    (Bn_util.Combin.subsets_up_to n k);
  !witness

let check_immunity ?(eps = 1e-9) t ~t_bound =
  let n = Bayesian.n_players t.base in
  let base_u = honest_utilities t in
  let witness = ref None in
  List.iter
    (fun deviators ->
      if !witness = None then
        let options = List.map (fun i -> (i, all_deviations t ~player:i)) deviators in
        List.iter
          (fun assignment ->
            if !witness = None then begin
              let u = utilities_under t assignment in
              List.iter
                (fun i ->
                  if (not (List.mem i deviators)) && u.(i) < base_u.(i) -. eps then
                    witness := Some (deviators, i, u.(i)))
                (List.init n Fun.id)
            end)
          (joint options))
    (Bn_util.Combin.subsets_up_to n t_bound);
  !witness
