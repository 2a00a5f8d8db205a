type stage = {
  payoffs : float array array array;
  action_names : string array;
}

let pd_paper =
  {
    payoffs =
      [|
        [| [| 3.0; 3.0 |]; [| -5.0; 5.0 |] |];
        [| [| 5.0; -5.0 |]; [| -3.0; -3.0 |] |];
      |];
    action_names = [| "C"; "D" |];
  }

let pd_classic =
  {
    payoffs =
      [|
        [| [| 3.0; 3.0 |]; [| 0.0; 5.0 |] |];
        [| [| 5.0; 0.0 |]; [| 1.0; 1.0 |] |];
      |];
    action_names = [| "C"; "D" |];
  }

type play = {
  actions : (int * int) list;
  total : float * float;
}

(* Shared engine: [tremble] flips each realized action with the given
   probability; both automata observe (and react to) the noisy actions. *)
let play_core ~delta ~tremble stage ~rounds m1 m2 =
  Automaton.validate m1;
  Automaton.validate m2;
  let flip a =
    match tremble with
    | Some (rng, noise) when Bn_util.Prng.float rng < noise -> 1 - a
    | Some _ | None -> a
  in
  let actions = ref [] in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  let s1 = ref m1.Automaton.start and s2 = ref m2.Automaton.start in
  let weight = ref delta in
  for _ = 1 to rounds do
    let a1 = flip (Automaton.action m1 ~state:!s1) in
    let a2 = flip (Automaton.action m2 ~state:!s2) in
    actions := (a1, a2) :: !actions;
    let p = stage.payoffs.(a1).(a2) in
    t1 := !t1 +. (!weight *. p.(0));
    t2 := !t2 +. (!weight *. p.(1));
    let next1 = Automaton.step m1 ~state:!s1 ~opp:a2 in
    let next2 = Automaton.step m2 ~state:!s2 ~opp:a1 in
    s1 := next1;
    s2 := next2;
    weight := !weight *. delta
  done;
  { actions = List.rev !actions; total = (!t1, !t2) }

let play ?(delta = 1.0) stage ~rounds m1 m2 =
  play_core ~delta ~tremble:None stage ~rounds m1 m2

let noisy_play rng ~noise ?(delta = 1.0) stage ~rounds m1 m2 =
  if noise < 0.0 || noise > 1.0 then invalid_arg "Repeated.noisy_play: noise in [0,1]";
  play_core ~delta ~tremble:(Some (rng, noise)) stage ~rounds m1 m2

let discounted_payoffs ?delta stage ~rounds m1 m2 = (play ?delta stage ~rounds m1 m2).total

let cooperation_rate p =
  match p.actions with
  | [] -> 0.0
  | acts ->
    let coop =
      List.fold_left
        (fun acc (a1, a2) -> acc + (if a1 = 0 then 1 else 0) + if a2 = 0 then 1 else 0)
        0 acts
    in
    float_of_int coop /. float_of_int (2 * List.length acts)
