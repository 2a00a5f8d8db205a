type concept =
  | Nash
  | Resilient of int
  | Immune of int
  | Robust of int * int

let check ?eps g profile = function
  | Nash -> Bn_game.Nash.is_nash ?eps g profile
  | Resilient k -> Bn_robust.Robust.is_k_resilient ?eps g profile ~k
  | Immune t -> Bn_robust.Robust.is_t_immune ?eps g profile ~t
  | Robust (k, t) -> Bn_robust.Robust.is_robust ?eps g profile ~k ~t

let classify ?max_k ?max_t g profile =
  if not (Bn_game.Nash.is_nash g profile) then `Not_nash
  else begin
    let n = Bn_game.Normal_form.n_players g in
    let max_k = Option.value ~default:n max_k in
    let max_t = Option.value ~default:n max_t in
    let rec best_k k =
      if k >= max_k then k
      else if Bn_robust.Robust.is_k_resilient g profile ~k:(k + 1) then best_k (k + 1)
      else k
    in
    let k = best_k 1 in
    let rec best_t t =
      if t >= max_t then t
      else if Bn_robust.Robust.is_robust g profile ~k ~t:(t + 1) then best_t (t + 1)
      else t
    in
    `Robust (k, best_t 0)
  end

let computational_nash ?eps g ~choice = Bn_machine.Machine_game.is_nash ?eps g ~choice

let generalized_nash ?eps t profile = Bn_awareness.Awareness.is_generalized_nash ?eps t profile

let pp_concept ppf = function
  | Nash -> Format.pp_print_string ppf "Nash"
  | Resilient k -> Format.fprintf ppf "%d-resilient" k
  | Immune t -> Format.fprintf ppf "%d-immune" t
  | Robust (k, t) -> Format.fprintf ppf "(%d,%d)-robust" k t
