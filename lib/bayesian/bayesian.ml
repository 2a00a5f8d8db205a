module Dist = Bn_util.Dist

type t = {
  n : int;
  num_types : int array;
  actions : int array;
  player_names : string array;
  type_names : string array array;
  action_names : string array array;
  prior : int array Dist.t;
  u : types:int array -> acts:int array -> float array;
}

let create ?player_names ?type_names ?action_names ~num_types ~actions ~prior u =
  let n = Array.length num_types in
  if n = 0 then invalid_arg "Bayesian.create: no players";
  if Array.length actions <> n then invalid_arg "Bayesian.create: actions arity";
  Array.iter (fun k -> if k <= 0 then invalid_arg "Bayesian.create: empty type set") num_types;
  Array.iter (fun k -> if k <= 0 then invalid_arg "Bayesian.create: empty action set") actions;
  List.iter
    (fun tp ->
      if Array.length tp <> n then invalid_arg "Bayesian.create: prior profile arity";
      Array.iteri
        (fun i ty ->
          if ty < 0 || ty >= num_types.(i) then
            invalid_arg "Bayesian.create: prior type out of range")
        tp)
    (Dist.support prior);
  let player_names =
    match player_names with
    | Some names -> names
    | None -> Array.init n (fun i -> Printf.sprintf "P%d" (i + 1))
  in
  let type_names =
    match type_names with
    | Some names -> names
    | None -> Array.init n (fun i -> Array.init num_types.(i) string_of_int)
  in
  let action_names =
    match action_names with
    | Some names -> names
    | None -> Array.init n (fun i -> Array.init actions.(i) string_of_int)
  in
  { n; num_types; actions; player_names; type_names; action_names; prior; u }

let n_players t = t.n
let num_types t i = t.num_types.(i)
let num_actions t i = t.actions.(i)
let prior t = t.prior
let utility t ~types ~acts = t.u ~types ~acts

type pure_strategy = int array
type behavioral = float array array

let pure_to_behavioral t ~player s =
  Array.map (fun a -> Bn_game.Mixed.pure ~num_actions:t.actions.(player) a) s

let pure_strategies t ~player =
  let dims = Array.make t.num_types.(player) t.actions.(player) in
  Bn_util.Combin.profiles dims

(* Distribution over action profiles given a type profile. *)
let action_dist t profile types =
  let per_player =
    List.init t.n (fun i ->
        Dist.of_list (Array.to_list (Array.mapi (fun a p -> (a, p)) profile.(i).(types.(i)))))
  in
  Dist.map Array.of_list (Dist.product_list per_player)

let ex_ante_utility t profile =
  let total = Array.make t.n 0.0 in
  List.iter
    (fun (types, p_ty) ->
      List.iter
        (fun (acts, p_a) ->
          let u = t.u ~types ~acts in
          for i = 0 to t.n - 1 do
            total.(i) <- total.(i) +. (p_ty *. p_a *. u.(i))
          done)
        (Dist.to_list (action_dist t profile types)))
    (Dist.to_list t.prior);
  total

let interim_utility t profile ~player ~ptype =
  match Dist.filter (fun types -> types.(player) = ptype) t.prior with
  | None -> invalid_arg "Bayesian.interim_utility: zero-probability type"
  | Some conditional ->
    Dist.expect
      (fun types ->
        Dist.expect (fun acts -> (t.u ~types ~acts).(player)) (action_dist t profile types))
      conditional

let outcome_dist t profile =
  Dist.bind t.prior (fun types ->
      Dist.map (fun acts -> (types, acts)) (action_dist t profile types))

(* The (player, type) pairs of positive marginal probability, player-major. *)
let agents t =
  Array.of_list
    (List.concat_map
       (fun i ->
         List.map (fun ty -> (i, ty))
           (List.sort_uniq compare (List.map (fun tp -> tp.(i)) (Dist.support t.prior))))
       (List.init t.n Fun.id))

let kernel t =
  let agents = agents t in
  {
    Bn_game.Kernel_game.agents = Array.length agents;
    options = (fun a -> t.actions.(fst agents.(a)));
    deviate =
      (fun profile a act ->
        let i, ptype = agents.(a) in
        let pure = Bn_game.Mixed.pure ~num_actions:t.actions.(i) act in
        Bn_game.Kernel_game.(set profile i (set profile.(i) ptype pure)));
    utility =
      (fun profile a ->
        let player, ptype = agents.(a) in
        interim_utility t profile ~player ~ptype);
  }

let is_bayes_nash ?eps t profile = Bn_game.Kernel_game.is_nash ?eps (kernel t) profile

let pure_bayes_nash ?eps t =
  let all = Array.init t.n (fun i -> Array.of_list (pure_strategies t ~player:i)) in
  let k = kernel t in
  List.filter_map
    (fun choice ->
      let arr = Array.mapi (fun i s -> all.(i).(s)) choice in
      let behavioral = Array.mapi (fun i s -> pure_to_behavioral t ~player:i s) arr in
      if Bn_game.Kernel_game.is_nash ?eps k behavioral then Some arr else None)
    (Bn_util.Combin.profiles (Array.map Array.length all))

let agent_form t =
  let agents = agents t in
  let acts = Array.map (fun (i, _) -> t.actions.(i)) agents in
  let agent_index = Hashtbl.create 16 in
  Array.iteri (fun idx key -> Hashtbl.replace agent_index key idx) agents;
  let game =
    Bn_game.Normal_form.create
      ~player_names:(Array.map (fun (i, ty) -> Printf.sprintf "%s:%s" t.player_names.(i) t.type_names.(i).(ty)) agents)
      ~actions:acts
      (fun p ->
        (* Each agent's payoff: interim utility of its (player, type) when
           all agents play their assigned pure action. *)
        Array.mapi
          (fun _idx (i, ty) ->
            match Dist.filter (fun types -> types.(i) = ty) t.prior with
            | None -> 0.0
            | Some conditional ->
              Dist.expect
                (fun types ->
                  let acts_arr =
                    Array.init t.n (fun j ->
                        match Hashtbl.find_opt agent_index (j, types.(j)) with
                        | Some aj -> p.(aj)
                        | None -> 0)
                  in
                  (t.u ~types ~acts:acts_arr).(i))
                conditional
          )
          agents)
  in
  (game, agents)
