module Dist = Bn_util.Dist
module Bayesian = Bn_bayesian.Bayesian

let majority acts =
  let ones = Array.fold_left ( + ) 0 acts in
  let zeros = Array.length acts - ones in
  if ones > zeros then 1 else 0

let game ~n =
  if n < 3 then invalid_arg "Ba_game.game: need n >= 3";
  let num_types = Array.init n (fun i -> if i = 0 then 2 else 1) in
  let prior = Dist.uniform [ Array.init n (fun _ -> 0); Array.init n (fun i -> if i = 0 then 1 else 0) ] in
  Bayesian.create
    ~player_names:(Array.init n (fun i -> if i = 0 then "general" else Printf.sprintf "soldier%d" i))
    ~num_types
    ~actions:(Array.make n 2)
    ~prior
    (fun ~types ~acts ->
      let maj = majority acts in
      Array.init n (fun i ->
          (if acts.(i) = maj then 1.0 else 0.0) +. if maj = types.(0) then 1.0 else 0.0))

let mediator ~n =
  let base = game ~n in
  {
    Mediated.base;
    mediate = (fun reported -> Dist.return (Array.make n reported.(0)));
  }
