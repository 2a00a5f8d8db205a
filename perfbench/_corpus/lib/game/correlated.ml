module Dist = Bn_util.Dist
module Simplex = Bn_lp.Simplex

(* Conditional obedience: given that i is recommended a (an event of
   positive probability under q), playing a must be at least as good as any
   a'. Written unconditionally: for all i, a, a':
   sum_{s : s_i = a} q(s) * (u_i(s) - u_i(a', s_{-i})) >= 0. *)

let is_correlated_equilibrium ?(eps = 1e-9) g q =
  let n = Normal_form.n_players g in
  let ok = ref true in
  for i = 0 to n - 1 do
    for a = 0 to Normal_form.num_actions g i - 1 do
      for a' = 0 to Normal_form.num_actions g i - 1 do
        if a <> a' then begin
          let lhs =
            List.fold_left
              (fun acc (s, p) ->
                if s.(i) = a then begin
                  let s' = Array.copy s in
                  s'.(i) <- a';
                  acc +. (p *. (Normal_form.payoff g s i -. Normal_form.payoff g s' i))
                end
                else acc)
              0.0 (Dist.to_list q)
          in
          if lhs < -.eps then ok := false
        end
      done
    done
  done;
  !ok

(* Solve max c·q subject to the obedience constraints, sum q = 1, q >= 0. *)
let solve_lp g objective_of_profile =
  let profiles = Array.of_list (Normal_form.profiles g) in
  let m = Array.length profiles in
  let n = Normal_form.n_players g in
  let objective = Array.map objective_of_profile profiles in
  let constraints = ref [ Simplex.eq (Array.make m 1.0) 1.0 ] in
  for i = 0 to n - 1 do
    for a = 0 to Normal_form.num_actions g i - 1 do
      for a' = 0 to Normal_form.num_actions g i - 1 do
        if a <> a' then begin
          let coeffs =
            Array.map
              (fun s ->
                if s.(i) = a then begin
                  let s' = Array.copy s in
                  s'.(i) <- a';
                  Normal_form.payoff g s i -. Normal_form.payoff g s' i
                end
                else 0.0)
              profiles
          in
          constraints := Simplex.ge coeffs 0.0 :: !constraints
        end
      done
    done
  done;
  match Simplex.maximize objective !constraints with
  | Simplex.Optimal { solution; value } ->
    let pairs =
      List.filteri (fun _ (_, p) -> p > 1e-12)
        (List.mapi (fun idx p -> (Array.copy profiles.(idx), p)) (Array.to_list solution))
    in
    (match pairs with
    | [] -> None
    | _ -> Some (Dist.of_list pairs, value))
  | Simplex.Infeasible | Simplex.Unbounded -> None

let max_welfare g =
  let n = Normal_form.n_players g in
  solve_lp g (fun s ->
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. Normal_form.payoff g s i
      done;
      !acc)

let max_player g ~player = solve_lp g (fun s -> Normal_form.payoff g s player)

let of_mixed g prof = Mixed.outcome_dist g prof
