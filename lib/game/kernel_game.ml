module Combin = Bn_util.Combin

type 'p t = {
  agents : int;
  options : int -> int;
  deviate : 'p -> int -> int -> 'p;
  utility : 'p -> int -> float;
}

let set a i x =
  let a = Array.copy a in
  a.(i) <- x;
  a

let best_deviation ?(eps = 1e-9) k p agent =
  let current = k.utility p agent in
  let best = ref None in
  for o = 0 to k.options agent - 1 do
    let u = k.utility (k.deviate p agent o) agent in
    match !best with
    | None -> if u > current +. eps then best := Some (o, u)
    | Some (_, ub) -> if u > ub then best := Some (o, u)
  done;
  !best

let first_deviation ?eps k p =
  let rec from agent =
    if agent >= k.agents then None
    else
      match best_deviation ?eps k p agent with
      | Some (o, _) -> Some (agent, o)
      | None -> from (agent + 1)
  in
  from 0

let is_nash ?eps k p = Option.is_none (first_deviation ?eps k p)

let pure_profiles k base =
  List.map
    (fun choice ->
      let p = ref base in
      for agent = k.agents - 1 downto 0 do
        p := k.deviate !p agent choice.(agent)
      done;
      !p)
    (Combin.profiles (Array.init k.agents k.options))

let pure_equilibria ?eps k base = List.filter (is_nash ?eps k) (pure_profiles k base)

let find_coalition (type w) k p ~max_size (gain : int list -> int array -> _ -> w option) =
  let exception Found of w in
  let dims = Array.init k.agents k.options in
  try
    List.iter
      (fun coalition ->
        let members = Array.of_list coalition in
        let m = Array.length members in
        (* prefix.(j) is [p] with the first [j] members deviated; only the
           positions at or after the changed one are rebuilt. *)
        let prefix = Array.make (m + 1) p in
        Combin.iter_joint_assignments members dims (fun choice changed ->
            for j = changed to m - 1 do
              prefix.(j + 1) <- k.deviate prefix.(j) members.(j) choice.(j)
            done;
            match gain coalition choice prefix.(m) with
            | Some w -> raise_notrace (Found w)
            | None -> ()))
      (Combin.subsets_up_to k.agents max_size);
    None
  with Found w -> Some w
