type spec = {
  stage : Repeated.stage;
  horizon : int;
  delta : float;
  memory_cost : float;
}

let default_space ~horizon =
  let family =
    if horizon <= 2 then []
    else
      List.filter_map
        (fun r -> if r >= 2 && r < horizon then Some (Automaton.defect_from ~round:r ~horizon) else None)
        [ 2; (horizon + 1) / 2; horizon - 1 ]
  in
  [
    Automaton.all_c;
    Automaton.all_d;
    Automaton.grim;
    Automaton.tit_for_tat;
    Automaton.pavlov;
    Automaton.alternator;
    Automaton.tft_defect_last ~horizon;
  ]
  @ family

let paper_space ~horizon =
  [
    Automaton.tit_for_tat;
    Automaton.all_d;
    Automaton.tft_defect_last ~horizon;
  ]
  @
  if horizon <= 2 then []
  else
    List.filter_map
      (fun r ->
        if r >= 2 && r < horizon then Some (Automaton.defect_from ~round:r ~horizon) else None)
      [ 2; (horizon + 1) / 2; horizon - 1 ]

let utility spec m1 m2 =
  let p1, _ = Repeated.discounted_payoffs ~delta:spec.delta spec.stage ~rounds:spec.horizon m1 m2 in
  p1 -. (spec.memory_cost *. float_of_int (Automaton.size m1))

let to_game ?space spec =
  let space = Array.of_list (match space with Some s -> s | None -> default_space ~horizon:spec.horizon) in
  let m = Array.length space in
  let names = Array.map (fun a -> a.Automaton.name) space in
  let game =
    Bn_game.Normal_form.create
      ~action_names:[| names; names |]
      ~actions:[| m; m |]
      (fun p ->
        let m1 = space.(p.(0)) and m2 = space.(p.(1)) in
        [| utility spec m1 m2; utility spec m2 m1 |])
  in
  (game, space)

let index_of space m =
  let rec go i = if i >= Array.length space then None else if space.(i).Automaton.name = m.Automaton.name then Some i else go (i + 1) in
  go 0

let is_equilibrium ?space spec m =
  let game, arr = to_game ?space spec in
  match index_of arr m with
  | None -> invalid_arg "Frpd.is_equilibrium: machine not in space"
  | Some idx -> Bn_game.Nash.is_pure_nash game [| idx; idx |]

let best_response ?space spec opponent =
  let space = match space with Some s -> s | None -> default_space ~horizon:spec.horizon in
  let best = ref None in
  List.iter
    (fun candidate ->
      let u = utility spec candidate opponent in
      match !best with
      | None -> best := Some (candidate, u)
      | Some (_, ub) -> if u > ub then best := Some (candidate, u))
    space;
  match !best with
  | Some r -> r
  | None -> invalid_arg "Frpd.best_response: empty space"

let tft_threshold_cost spec =
  let counting = Automaton.tft_defect_last ~horizon:spec.horizon in
  let extra_states = Automaton.size counting - Automaton.size Automaton.tit_for_tat in
  let gain = 2.0 *. (spec.delta ** float_of_int spec.horizon) in
  gain /. float_of_int extra_states

let min_horizon_for_equilibrium ?(max_n = 60) ~memory_cost ~delta () =
  let rec go n =
    if n > max_n then None
    else begin
      let spec = { stage = Repeated.pd_paper; horizon = n; delta; memory_cost } in
      if is_equilibrium ~space:(paper_space ~horizon:n) spec Automaton.tit_for_tat then Some n
      else go (n + 1)
    end
  in
  go 2
