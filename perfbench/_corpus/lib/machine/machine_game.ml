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

let best_deviation t ~choice ~player =
  let current = expected_utility t ~choice ~player in
  let best = ref None in
  Array.iteri
    (fun m _ ->
      if m <> choice.(player) then begin
        let alt = Array.copy choice in
        alt.(player) <- m;
        let u = expected_utility t ~choice:alt ~player in
        let better_than_best =
          match !best with None -> u > current +. 1e-9 | Some (_, ub) -> u > ub
        in
        if better_than_best then best := Some (m, u)
      end)
    t.machines.(player);
  !best

let is_nash ?(eps = 1e-9) t ~choice =
  let n = n_players t in
  let ok = ref true in
  for i = 0 to n - 1 do
    let current = expected_utility t ~choice ~player:i in
    match best_deviation t ~choice ~player:i with
    | Some (_, u) when u > current +. eps -> ok := false
    | Some _ | None -> ()
  done;
  !ok

let all_choices t =
  Bn_util.Combin.profiles (Array.map Array.length t.machines)

let nash_equilibria t =
  List.filter (fun choice -> is_nash t ~choice) (all_choices t)

let nonexistence_certificate t =
  let entries =
    List.map
      (fun choice ->
        let n = n_players t in
        let rec find i =
          if i >= n then None
          else
            let current = expected_utility t ~choice ~player:i in
            match best_deviation t ~choice ~player:i with
            | Some (m, u) when u > current +. 1e-9 -> Some (choice, i, m)
            | Some _ | None -> find (i + 1)
        in
        find 0)
      (all_choices t)
  in
  if List.exists (( = ) None) entries then None
  else Some (List.map Option.get entries)

let to_normal_form t =
  let actions = Array.map Array.length t.machines in
  let action_names =
    Array.map (fun space -> Array.map (fun m -> m.Machine.name) space) t.machines
  in
  Bn_game.Normal_form.create ~action_names ~actions (fun choice ->
      Array.init (n_players t) (fun i -> expected_utility t ~choice ~player:i))
