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

(* Ex-ante utilities when player [i] applies [devs.(i)]. *)
let utilities t devs =
  let n = Bayesian.n_players t.base in
  let total = Array.make n 0.0 in
  List.iter
    (fun (types, p_ty) ->
      let reported = Array.init n (fun i -> devs.(i).report types.(i)) in
      List.iter
        (fun (recs, p_rec) ->
          let acts = Array.init n (fun i -> devs.(i).act types.(i) recs.(i)) in
          let u = Bayesian.utility t.base ~types ~acts in
          for i = 0 to n - 1 do
            total.(i) <- total.(i) +. (p_ty *. p_rec *. u.(i))
          done)
        (Dist.to_list (t.mediate reported)))
    (Dist.to_list (Bayesian.prior t.base));
  total

let honest t = Array.make (Bayesian.n_players t.base) honest_deviation

let utilities_under t deviators =
  utilities t
    (Array.mapi
       (fun i d -> Option.value (List.assoc_opt i deviators) ~default:d)
       (honest t))

let honest_utilities t = utilities t (honest t)

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

(* One agent per player, whose options are its {!all_deviations} and whose
   utility is its ex-ante payoff; the profile is one deviation per player. *)
let kernel t =
  let n = Bayesian.n_players t.base in
  let devs = Array.init n (fun i -> Array.of_list (all_deviations t ~player:i)) in
  {
    Bn_game.Kernel_game.agents = n;
    options = (fun i -> Array.length devs.(i));
    deviate = (fun profile i o -> Bn_game.Kernel_game.set profile i devs.(i).(o));
    utility = (fun profile i -> (utilities t profile).(i));
  }

let is_truthful_equilibrium ?eps t = Bn_game.Kernel_game.is_nash ?eps (kernel t) (honest t)

let check_resilience ?(eps = 1e-9) t ~k =
  let base_u = honest_utilities t in
  Bn_game.Kernel_game.find_coalition (kernel t) (honest t) ~max_size:k (fun coalition _ devs ->
      let u = utilities t devs in
      if List.exists (fun i -> u.(i) > base_u.(i) +. eps) coalition then Some (coalition, u)
      else None)

(* The witness names the highest-indexed harmed non-deviator. *)
let check_immunity ?(eps = 1e-9) t ~t_bound =
  let n = Bayesian.n_players t.base in
  let base_u = honest_utilities t in
  Bn_game.Kernel_game.find_coalition (kernel t) (honest t) ~max_size:t_bound
    (fun deviators _ devs ->
      let u = utilities t devs in
      List.fold_left
        (fun w i ->
          if (not (List.mem i deviators)) && u.(i) < base_u.(i) -. eps then
            Some (deviators, i, u.(i))
          else w)
        None (List.init n Fun.id))
