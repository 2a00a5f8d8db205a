module Simplex = Bn_lp.Simplex

(* LP: find a mixture y over player's actions except [a] and a margin m,
   maximizing m subject to  sum_b y_b u(b, s) - u(a, s) >= m  for every
   opposing pure profile s, sum y = 1. Dominated iff optimal m > eps. The
   free margin is encoded as mplus - mminus. *)
let mixed_dominates ?(eps = 1e-9) g ~player a =
  let own = Normal_form.num_actions g player in
  let others = List.init own (fun b -> b) |> List.filter (fun b -> b <> a) in
  let k = List.length others in
  if k = 0 then None
  else begin
    let dims = Normal_form.actions g in
    let opposing_dims = Array.copy dims in
    opposing_dims.(player) <- 1;
    let opposing = Bn_util.Combin.profiles opposing_dims in
    let nvars = k + 2 in
    let payoff b s =
      let p = Array.copy s in
      p.(player) <- b;
      Normal_form.payoff g p player
    in
    let rows =
      List.map
        (fun s ->
          Simplex.ge
            (Array.init nvars (fun c ->
                 if c < k then payoff (List.nth others c) s -. payoff a s
                 else if c = k then -1.0
                 else 1.0))
            0.0)
        opposing
    in
    let sum_row = Simplex.eq (Array.init nvars (fun c -> if c < k then 1.0 else 0.0)) 1.0 in
    let objective = Array.init nvars (fun c -> if c = k then 1.0 else if c = k + 1 then -1.0 else 0.0) in
    match Simplex.maximize objective (sum_row :: rows) with
    | Simplex.Optimal { solution; value } when value > eps ->
      let mix = Array.make own 0.0 in
      List.iteri (fun idx b -> mix.(b) <- Float.max 0.0 solution.(idx)) others;
      let total = Array.fold_left ( +. ) 0.0 mix in
      Some (Array.map (fun x -> x /. total) mix)
    | Simplex.Optimal _ | Simplex.Infeasible | Simplex.Unbounded -> None
  end

(* Restrict the game to surviving actions, preserving original indices via
   the mapping arrays. *)
let restrict g surviving =
  let n = Normal_form.n_players g in
  let arr = Array.map Array.of_list surviving in
  Normal_form.create
    ~actions:(Array.map Array.length arr)
    (fun p ->
      let original = Array.init n (fun i -> arr.(i).(p.(i))) in
      Normal_form.payoff_vector g original)

let rationalizable g =
  let n = Normal_form.n_players g in
  let surviving = Array.init n (fun i -> List.init (Normal_form.num_actions g i) Fun.id) in
  let changed = ref true in
  while !changed do
    changed := false;
    let current = restrict g surviving in
    for i = 0 to n - 1 do
      if List.length surviving.(i) > 1 then begin
        let doomed = ref [] in
        List.iteri
          (fun local _original ->
            if mixed_dominates current ~player:i local <> None then doomed := local :: !doomed)
          surviving.(i);
        match !doomed with
        | [] -> ()
        | local :: _ ->
          (* Remove one action per pass to keep the reduction well-founded. *)
          surviving.(i) <- List.filteri (fun idx _ -> idx <> local) surviving.(i);
          changed := true
      end
    done
  done;
  surviving

let is_dominance_solvable g =
  Array.for_all (fun s -> List.length s = 1) (rationalizable g)
