module Dist = Bn_util.Dist

type t = {
  machines : Machine.t array array;
  num_types : int array;
  prior : int array Dist.t;
  utility :
    player:int -> types:int array -> acts:int array -> complexities:float array -> float;
}

let create ~machines ~num_types ~prior ~utility =
  let n = Array.length machines in
  if n = 0 then invalid_arg "Machine_game.create: no players";
  if Array.length num_types <> n then invalid_arg "Machine_game.create: num_types arity";
  Array.iter
    (fun space -> if Array.length space = 0 then invalid_arg "Machine_game.create: empty machine space")
    machines;
  { machines; num_types; prior; utility }

let simple ~machines ~base ~charge =
  let n = Array.length machines in
  create ~machines ~num_types:(Array.make n 1)
    ~prior:(Dist.return (Array.make n 0))
    ~utility:(fun ~player ~types:_ ~acts ~complexities ->
      (base acts).(player) -. (charge.(player) *. complexities.(player)))

let n_players t = Array.length t.machines
let machine_space t ~player = t.machines.(player)

let expected_utility t ~choice ~player =
  let n = n_players t in
  Dist.expect
    (fun types ->
      let complexities =
        Array.init n (fun i -> t.machines.(i).(choice.(i)).Machine.complexity types.(i))
      in
      let action_dists =
        List.init n (fun i -> t.machines.(i).(choice.(i)).Machine.act types.(i))
      in
      Dist.expect
        (fun acts ->
          t.utility ~player ~types ~acts:(Array.of_list acts) ~complexities)
        (Dist.product_list action_dists))
    t.prior

(* The complexity charge is already inside [expected_utility]: the bridge
   supplies it as the agents' utility, and the deviation search is the
   classical one. *)
let kernel t =
  {
    Bn_game.Kernel_game.agents = n_players t;
    options = (fun i -> Array.length t.machines.(i));
    deviate = Bn_game.Kernel_game.set;
    utility = (fun choice player -> expected_utility t ~choice ~player);
  }

let best_deviation t ~choice ~player = Bn_game.Kernel_game.best_deviation (kernel t) choice player
let is_nash ?eps t ~choice = Bn_game.Kernel_game.is_nash ?eps (kernel t) choice
let base_choice t = Array.make (n_players t) 0
let nash_equilibria t = Bn_game.Kernel_game.pure_equilibria (kernel t) (base_choice t)

let nonexistence_certificate t =
  let k = kernel t in
  let entries =
    List.map
      (fun choice ->
        Option.map (fun (i, m) -> (choice, i, m)) (Bn_game.Kernel_game.first_deviation k choice))
      (Bn_game.Kernel_game.pure_profiles k (base_choice t))
  in
  if List.exists Option.is_none entries then None else Some (List.map Option.get entries)

let to_normal_form t =
  let actions = Array.map Array.length t.machines in
  let action_names =
    Array.map (fun space -> Array.map (fun m -> m.Machine.name) space) t.machines
  in
  Bn_game.Normal_form.create ~action_names ~actions (fun choice ->
      Array.init (n_players t) (fun i -> expected_utility t ~choice ~player:i))
