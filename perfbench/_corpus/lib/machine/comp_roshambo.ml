module Dist = Bn_util.Dist

let payoff acts =
  let i = acts.(0) and j = acts.(1) in
  let u1 = if i = (j + 1) mod 3 then 1.0 else if j = (i + 1) mod 3 then -1.0 else 0.0 in
  [| u1; -.u1 |]

let machines ~extra_randomizers =
  let det = List.init 3 (fun a -> Machine.constant [| "rock"; "paper"; "scissors" |].(a) a) in
  let uniform =
    Machine.randomizing "uniform" (fun _ -> Dist.uniform [ 0; 1; 2 ])
  in
  let extras =
    if extra_randomizers then
      [
        Machine.randomizing "biased-rp" (fun _ -> Dist.of_list [ (0, 0.5); (1, 0.5) ]);
        Machine.randomizing "biased-ps" (fun _ -> Dist.of_list [ (1, 0.5); (2, 0.5) ]);
      ]
    else []
  in
  Array.of_list (det @ [ uniform ] @ extras)

let game ?(extra_randomizers = false) () =
  let space = machines ~extra_randomizers in
  Machine_game.simple ~machines:[| space; space |] ~base:payoff ~charge:[| 1.0; 1.0 |]

let has_equilibrium g = Machine_game.nash_equilibria g <> []

let certificate g = Machine_game.nonexistence_certificate g

let classical_equilibria () = Bn_game.Nash.support_enumeration_2p Bn_game.Games.roshambo
