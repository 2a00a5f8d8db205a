module Mixed = Bn_game.Mixed
module Nash = Bn_game.Nash
module Normal_form = Bn_game.Normal_form

type t = {
  weights : float list;
  equilibria : Mixed.profile list;
}

let make components =
  if components = [] then invalid_arg "Sunspot.make: no components";
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 components in
  if total <= 0.0 || List.exists (fun (w, _) -> w < 0.0) components then
    invalid_arg "Sunspot.make: weights must be non-negative with positive sum";
  {
    weights = List.map (fun (w, _) -> w /. total) components;
    equilibria = List.map snd components;
  }

let is_valid ?eps g t = List.for_all (Nash.is_nash ?eps g) t.equilibria

let expected_payoffs g t =
  let n = Normal_form.n_players g in
  let acc = Array.make n 0.0 in
  List.iter2
    (fun w prof ->
      for i = 0 to n - 1 do
        acc.(i) <- acc.(i) +. (w *. Mixed.expected_payoff g prof i)
      done)
    t.weights t.equilibria;
  acc

let best_sunspot_welfare g =
  List.fold_left
    (fun acc prof ->
      let n = Normal_form.n_players g in
      let w = ref 0.0 in
      for i = 0 to n - 1 do
        w := !w +. Mixed.expected_payoff g prof i
      done;
      Float.max acc !w)
    neg_infinity (Nash.support_enumeration_2p g)

let mediator_gap g =
  match Bn_game.Correlated.max_welfare g with
  | None -> 0.0
  | Some (_, ce) -> Float.max 0.0 (ce -. best_sunspot_welfare g)

let sample_and_play rng g t =
  (* Public randomness via commit-reveal coin flips: enough fair bits to
     sample the component index by inverse transform over dyadic
     refinement. *)
  let coin () =
    match Bn_crypto.Coin_flip.honest rng with
    | { Bn_crypto.Coin_flip.coin = Some c; _ } -> c
    | { Bn_crypto.Coin_flip.coin = None; _ } -> 0
  in
  let u =
    (* 20 public coin flips give a uniform dyadic in [0,1). *)
    let x = ref 0.0 and scale = ref 0.5 in
    for _ = 1 to 20 do
      if coin () = 1 then x := !x +. !scale;
      scale := !scale /. 2.0
    done;
    !x
  in
  let rec pick weights eqs acc =
    match (weights, eqs) with
    | [ _ ], [ e ] -> e
    | w :: ws, e :: es -> if u < acc +. w then e else pick ws es (acc +. w)
    | _ -> invalid_arg "Sunspot.sample_and_play: mismatched components"
  in
  let component = pick t.weights t.equilibria 0.0 in
  let actions =
    Array.mapi
      (fun i strat ->
        let d = Bn_util.Dist.of_list (Array.to_list (Array.mapi (fun a p -> (a, p)) strat)) in
        ignore i;
        Bn_util.Dist.sample rng d)
      component
  in
  (actions, Normal_form.payoff_vector g actions)
