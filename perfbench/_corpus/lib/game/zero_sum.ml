open Bn_lp

(* Maxmin mixture for the row player of matrix [a]: maximize v subject to
   (p^T a)_j >= v for every column j, p a distribution. The free value v is
   encoded as vplus - vminus. *)
let row_value a =
  let rows = Array.length a and cols = Array.length a.(0) in
  let nvars = rows + 2 in
  let objective = Array.init nvars (fun c -> if c = rows then 1.0 else if c = rows + 1 then -1.0 else 0.0) in
  let col_constraint j =
    Simplex.ge
      (Array.init nvars (fun c ->
           if c < rows then a.(c).(j) else if c = rows then -1.0 else 1.0))
      0.0
  in
  let sum_row = Simplex.eq (Array.init nvars (fun c -> if c < rows then 1.0 else 0.0)) 1.0 in
  let constraints = sum_row :: List.init cols col_constraint in
  match Simplex.maximize objective constraints with
  | Simplex.Optimal { solution; value } ->
    let p = Array.sub solution 0 rows in
    (* Clean numerical dust and renormalize. *)
    let p = Array.map (fun x -> if x < 0.0 then 0.0 else x) p in
    let total = Array.fold_left ( +. ) 0.0 p in
    Some (value, Array.map (fun x -> x /. total) p)
  | Simplex.Infeasible | Simplex.Unbounded -> None

let value g =
  if Normal_form.n_players g <> 2 || not (Normal_form.is_zero_sum g) then None
  else begin
    let m1 = Normal_form.num_actions g 0 and m2 = Normal_form.num_actions g 1 in
    let a = Array.init m1 (fun i -> Array.init m2 (fun j -> Normal_form.payoff g [| i; j |] 0)) in
    match row_value a with
    | None -> None
    | Some (v, row) -> (
      (* Column player maximizes -a^T. *)
      let at = Array.init m2 (fun j -> Array.init m1 (fun i -> -.a.(i).(j))) in
      match row_value at with
      | None -> None
      | Some (_, col) -> Some (v, row, col))
  end

let maxmin_pure g ~player =
  let acts = Normal_form.actions g in
  let others = Array.copy acts in
  others.(player) <- 1;
  let best = ref neg_infinity in
  for a = 0 to acts.(player) - 1 do
    let worst = ref infinity in
    Bn_util.Combin.iter_profiles others (fun partial ->
        let p = Array.copy partial in
        p.(player) <- a;
        let u = Normal_form.payoff g p player in
        if u < !worst then worst := u);
    if !worst > !best then best := !worst
  done;
  !best

let minmax_correlated g ~player =
  let acts = Normal_form.actions g in
  let others_dims = Array.copy acts in
  others_dims.(player) <- 1;
  let opposing = Bn_util.Combin.profiles others_dims in
  let opposing = Array.of_list opposing in
  let m = acts.(player) in
  let a =
    Array.init m (fun own ->
        Array.map
          (fun partial ->
            let p = Array.copy partial in
            p.(player) <- own;
            Normal_form.payoff g p player)
          opposing)
  in
  match row_value a with
  | Some (v, p) -> (v, p)
  | None ->
    (* The LP is always feasible and bounded for a finite matrix; fall back
       to the pure security level defensively. *)
    (maxmin_pure g ~player, Mixed.uniform m)
