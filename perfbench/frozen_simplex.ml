(* A frozen copy of lib/lp/simplex.ml as it was when the benchmark was
   frozen, the solver of the host-speed reference in [Speed_ref]. It is
   not kept in step with lib/lp: the reference must do the same work on
   every commit, so that only the host can change its time. *)

type relation = Le | Ge | Eq

type constraint_row = { coeffs : float array; relation : relation; rhs : float }

type problem = { objective : float array; constraints : constraint_row list }

type outcome =
  | Optimal of { solution : float array; value : float }
  | Infeasible
  | Unbounded

let le coeffs rhs = { coeffs; relation = Le; rhs }
let ge coeffs rhs = { coeffs; relation = Ge; rhs }
let eq coeffs rhs = { coeffs; relation = Eq; rhs }

let eps = 1e-9

(* Normalize every row to rhs >= 0 by flipping; shared by both solvers so
   they see identical standard forms. *)
let normalize { objective; constraints } =
  let nvars = Array.length objective in
  let normalized =
    List.map
      (fun { coeffs; relation; rhs } ->
        if Array.length coeffs <> nvars then invalid_arg "Simplex: coefficient arity";
        if rhs < 0.0 then
          ( Array.map (fun c -> -.c) coeffs,
            (match relation with Le -> Ge | Ge -> Le | Eq -> Eq),
            -.rhs )
        else (Array.copy coeffs, relation, rhs))
      constraints
  in
  (nvars, normalized)

(* ------------------------------------------------------------------ *)
(* Dense two-phase tableau — the original solver, retained verbatim as
   the agreement oracle ([solve_dense]) for the revised method below.  *)
(* ------------------------------------------------------------------ *)

(* Tableau layout: columns are [structural | slack/surplus | artificial | rhs].
   [basis.(r)] is the column currently basic in row [r]. Two objective rows
   are carried: phase-1 (sum of artificials) and phase-2 (the real one). *)
type tableau = {
  m : float array array; (* rows x (ncols + 1); last column is rhs *)
  basis : int array;
  nvars : int; (* structural *)
  ncols : int; (* total columns excluding rhs *)
  obj : float array; (* phase-2 objective over all columns, maximization *)
}

let build problem =
  let nvars, normalized = normalize problem in
  let rows = List.length normalized in
  let n_slack = List.length (List.filter (fun (_, r, _) -> r <> Eq) normalized) in
  let n_art =
    List.length (List.filter (fun (_, r, _) -> r = Ge || r = Eq) normalized)
  in
  let ncols = nvars + n_slack + n_art in
  let m = Array.make_matrix rows (ncols + 1) 0.0 in
  let basis = Array.make rows (-1) in
  let slack_idx = ref nvars in
  let art_idx = ref (nvars + n_slack) in
  List.iteri
    (fun r (coeffs, relation, rhs) ->
      Array.blit coeffs 0 m.(r) 0 nvars;
      m.(r).(ncols) <- rhs;
      (match relation with
      | Le ->
        m.(r).(!slack_idx) <- 1.0;
        basis.(r) <- !slack_idx;
        incr slack_idx
      | Ge ->
        m.(r).(!slack_idx) <- -1.0;
        incr slack_idx;
        m.(r).(!art_idx) <- 1.0;
        basis.(r) <- !art_idx;
        incr art_idx
      | Eq ->
        m.(r).(!art_idx) <- 1.0;
        basis.(r) <- !art_idx;
        incr art_idx))
    normalized;
  let obj = Array.make ncols 0.0 in
  Array.blit problem.objective 0 obj 0 nvars;
  ({ m; basis; nvars; ncols; obj }, nvars + n_slack)

(* Reduced costs for maximizing [c] given the current basis. *)
let reduced_costs t c =
  let rows = Array.length t.m in
  let lambda = Array.make rows 0.0 in
  for r = 0 to rows - 1 do
    lambda.(r) <- c.(t.basis.(r))
  done;
  Array.init t.ncols (fun j ->
      let zj = ref 0.0 in
      for r = 0 to rows - 1 do
        zj := !zj +. (lambda.(r) *. t.m.(r).(j))
      done;
      c.(j) -. !zj)

let objective_value t c =
  let acc = ref 0.0 in
  Array.iteri (fun r bj -> acc := !acc +. (c.(bj) *. t.m.(r).(t.ncols))) t.basis;
  !acc

let pivot t ~row ~col =
  let rows = Array.length t.m in
  let p = t.m.(row).(col) in
  for j = 0 to t.ncols do
    t.m.(row).(j) <- t.m.(row).(j) /. p
  done;
  for r = 0 to rows - 1 do
    if r <> row && Float.abs t.m.(r).(col) > 0.0 then begin
      let f = t.m.(r).(col) in
      for j = 0 to t.ncols do
        t.m.(r).(j) <- t.m.(r).(j) -. (f *. t.m.(row).(j))
      done
    end
  done;
  t.basis.(row) <- col

(* One simplex run maximizing [c] over columns [0, limit). Bland's rule. *)
let run t c ~limit =
  let rows = Array.length t.m in
  let rec step () =
    let rc = reduced_costs t c in
    let entering = ref (-1) in
    (try
       for j = 0 to limit - 1 do
         if rc.(j) > eps then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then `Optimal
    else begin
      let col = !entering in
      let best_row = ref (-1) in
      let best_ratio = ref infinity in
      for r = 0 to rows - 1 do
        if t.m.(r).(col) > eps then begin
          let ratio = t.m.(r).(t.ncols) /. t.m.(r).(col) in
          if
            ratio < !best_ratio -. eps
            || (Float.abs (ratio -. !best_ratio) <= eps
               && (!best_row < 0 || t.basis.(r) < t.basis.(!best_row)))
          then begin
            best_ratio := ratio;
            best_row := r
          end
        end
      done;
      if !best_row < 0 then `Unbounded
      else begin
        pivot t ~row:!best_row ~col;
        step ()
      end
    end
  in
  step ()

let solve_dense problem =
  let t, non_artificial = build problem in
  let has_artificials = t.ncols > non_artificial in
  let feasible =
    if not has_artificials then true
    else begin
      (* Phase 1: maximize -(sum of artificials). *)
      let c1 = Array.make t.ncols 0.0 in
      for j = non_artificial to t.ncols - 1 do
        c1.(j) <- -1.0
      done;
      (match run t c1 ~limit:t.ncols with
      | `Unbounded -> () (* cannot happen: phase-1 objective is bounded *)
      | `Optimal -> ());
      let v1 = objective_value t c1 in
      if v1 < -.eps then false
      else begin
        (* Drive any artificial still basic (at zero) out of the basis. *)
        Array.iteri
          (fun r bj ->
            if bj >= non_artificial then begin
              let found = ref (-1) in
              for j = 0 to non_artificial - 1 do
                if !found < 0 && Float.abs t.m.(r).(j) > eps then found := j
              done;
              if !found >= 0 then pivot t ~row:r ~col:!found
            end)
          t.basis;
        true
      end
    end
  in
  if not feasible then Infeasible
  else begin
    (* Phase 2: entering variables restricted to non-artificial columns;
       any artificial left basic sits at value 0 in a redundant row. *)
    let c2 = Array.make t.ncols 0.0 in
    Array.blit t.obj 0 c2 0 (Array.length t.obj);
    for j = non_artificial to t.ncols - 1 do
      c2.(j) <- 0.0
    done;
    match run t c2 ~limit:non_artificial with
    | `Unbounded -> Unbounded
    | `Optimal ->
      let x = Array.make t.nvars 0.0 in
      Array.iteri
        (fun r bj -> if bj < t.nvars then x.(bj) <- t.m.(r).(t.ncols))
        t.basis;
      Optimal { solution = x; value = objective_value t t.obj }
  end

(* ------------------------------------------------------------------ *)
(* Revised simplex — the default solver. The constraint matrix lives in
   compressed sparse columns on a flat float64 Bigarray and is never
   mutated; the only state updated per pivot is the explicit basis
   inverse (rows×rows, flat) and the basic solution, via an eta
   transformation. A pivot costs O(rows²) + one sparse column scan,
   against the dense tableau's O(rows × ncols) full-matrix sweep, and
   pricing touches only the stored nonzeros. Pivoting rules (Bland's
   entering choice, the ratio-test tie-breaks, the phase-1 drive-out
   scan) mirror the dense oracle exactly, so the two solvers walk the
   same vertex sequence up to floating-point drift; the QCheck suite
   pins agreement on random LPs and zero-sum games.                    *)
(* ------------------------------------------------------------------ *)

type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Column j's entries: rows [rowi.(k)] with values [svals.{k}] for
   k in colp.(j) .. colp.(j+1)-1. *)
type sparse = {
  colp : int array;
  rowi : int array;
  svals : ba;
  s_rows : int;
  s_ncols : int;
  s_nvars : int;
  s_obj : float array; (* phase-2 objective over all columns *)
}

let build_sparse problem =
  let nvars, normalized = normalize problem in
  let rows_a = Array.of_list normalized in
  let rows = Array.length rows_a in
  let n_slack =
    Array.fold_left (fun acc (_, r, _) -> if r <> Eq then acc + 1 else acc) 0 rows_a
  in
  let n_art =
    Array.fold_left
      (fun acc (_, r, _) -> if r = Ge || r = Eq then acc + 1 else acc)
      0 rows_a
  in
  let ncols = nvars + n_slack + n_art in
  (* Gather per-column entries; prepending over ascending rows leaves each
     list in descending row order, reversed at pack time. *)
  let cols = Array.make (max ncols 1) [] in
  let basis = Array.make rows (-1) in
  let b = Array.make rows 0.0 in
  let slack_idx = ref nvars in
  let art_idx = ref (nvars + n_slack) in
  Array.iteri
    (fun r (coeffs, relation, rhs) ->
      Array.iteri (fun j c -> if c <> 0.0 then cols.(j) <- (r, c) :: cols.(j)) coeffs;
      b.(r) <- rhs;
      match relation with
      | Le ->
        cols.(!slack_idx) <- [ (r, 1.0) ];
        basis.(r) <- !slack_idx;
        incr slack_idx
      | Ge ->
        cols.(!slack_idx) <- [ (r, -1.0) ];
        incr slack_idx;
        cols.(!art_idx) <- [ (r, 1.0) ];
        basis.(r) <- !art_idx;
        incr art_idx
      | Eq ->
        cols.(!art_idx) <- [ (r, 1.0) ];
        basis.(r) <- !art_idx;
        incr art_idx)
    rows_a;
  let nnz = Array.fold_left (fun acc l -> acc + List.length l) 0 cols in
  let colp = Array.make (ncols + 1) 0 in
  let rowi = Array.make (max nnz 1) 0 in
  let svals = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max nnz 1) in
  let k = ref 0 in
  for j = 0 to ncols - 1 do
    colp.(j) <- !k;
    List.iter
      (fun (r, v) ->
        rowi.(!k) <- r;
        Bigarray.Array1.set svals !k v;
        incr k)
      (List.rev cols.(j))
  done;
  colp.(ncols) <- !k;
  let s_obj = Array.make (max ncols 1) 0.0 in
  Array.blit problem.objective 0 s_obj 0 nvars;
  ( { colp; rowi; svals; s_rows = rows; s_ncols = ncols; s_nvars = nvars; s_obj },
    nvars + n_slack,
    basis,
    b )

(* Reduced cost of column [j] given simplex multipliers [y]: a dot product
   over the column's stored nonzeros only. *)
let reduced_cost sp y c j =
  let acc = ref 0.0 in
  for k = sp.colp.(j) to sp.colp.(j + 1) - 1 do
    acc := !acc +. (Array.unsafe_get y sp.rowi.(k) *. Bigarray.Array1.unsafe_get sp.svals k)
  done;
  c.(j) -. !acc

(* d := B⁻¹ A_j (the tableau column of [j] under the current basis). *)
let direction sp binv d j =
  let rows = sp.s_rows in
  for r = 0 to rows - 1 do
    let base = r * rows in
    let acc = ref 0.0 in
    for k = sp.colp.(j) to sp.colp.(j + 1) - 1 do
      acc :=
        !acc
        +. (Bigarray.Array1.unsafe_get sp.svals k
           *. Bigarray.Array1.unsafe_get binv (base + sp.rowi.(k)))
    done;
    d.(r) <- !acc
  done

(* Row [r] of B⁻¹ A_j alone — enough to screen drive-out candidates. *)
let direction_row sp binv ~row j =
  let base = row * sp.s_rows in
  let acc = ref 0.0 in
  for k = sp.colp.(j) to sp.colp.(j + 1) - 1 do
    acc :=
      !acc
      +. (Bigarray.Array1.unsafe_get sp.svals k
         *. Bigarray.Array1.unsafe_get binv (base + sp.rowi.(k)))
  done;
  !acc

(* Apply the eta transformation for a pivot on [row] with tableau column
   [d]: premultiply B⁻¹ (and the basic solution) by E⁻¹. *)
let eta_update binv xb rows ~row d =
  let p = d.(row) in
  let pbase = row * rows in
  for r = 0 to rows - 1 do
    if r <> row then begin
      let f = d.(r) /. p in
      if f <> 0.0 then begin
        let base = r * rows in
        for j = 0 to rows - 1 do
          Bigarray.Array1.unsafe_set binv (base + j)
            (Bigarray.Array1.unsafe_get binv (base + j)
            -. (f *. Bigarray.Array1.unsafe_get binv (pbase + j)))
        done;
        xb.(r) <- xb.(r) -. (f *. xb.(row))
      end
    end
  done;
  for j = 0 to rows - 1 do
    Bigarray.Array1.unsafe_set binv (pbase + j)
      (Bigarray.Array1.unsafe_get binv (pbase + j) /. p)
  done;
  xb.(row) <- xb.(row) /. p

(* One revised-simplex run maximizing [c] over columns [0, limit), same
   entering/leaving rules as the dense [run]. *)
let run_revised sp binv basis xb c ~limit =
  let rows = sp.s_rows in
  let y = Array.make (max rows 1) 0.0 in
  let d = Array.make (max rows 1) 0.0 in
  let rec step () =
    (* y = cB^T B⁻¹. *)
    for j = 0 to rows - 1 do
      let acc = ref 0.0 in
      for r = 0 to rows - 1 do
        acc := !acc +. (c.(basis.(r)) *. Bigarray.Array1.unsafe_get binv ((r * rows) + j))
      done;
      y.(j) <- !acc
    done;
    let entering = ref (-1) in
    (try
       for j = 0 to limit - 1 do
         if reduced_cost sp y c j > eps then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then `Optimal
    else begin
      direction sp binv d !entering;
      let best_row = ref (-1) in
      let best_ratio = ref infinity in
      for r = 0 to rows - 1 do
        if d.(r) > eps then begin
          let ratio = xb.(r) /. d.(r) in
          if
            ratio < !best_ratio -. eps
            || (Float.abs (ratio -. !best_ratio) <= eps
               && (!best_row < 0 || basis.(r) < basis.(!best_row)))
          then begin
            best_ratio := ratio;
            best_row := r
          end
        end
      done;
      if !best_row < 0 then `Unbounded
      else begin
        eta_update binv xb rows ~row:!best_row d;
        basis.(!best_row) <- !entering;
        step ()
      end
    end
  in
  step ()

let solve problem =
  let sp, non_artificial, basis, b = build_sparse problem in
  let rows = sp.s_rows in
  (* The initial basis is all unit columns (slack or artificial), so B = I
     and the basic solution is the (non-negative) rhs. *)
  let binv = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max (rows * rows) 1) in
  Bigarray.Array1.fill binv 0.0;
  for r = 0 to rows - 1 do
    Bigarray.Array1.set binv ((r * rows) + r) 1.0
  done;
  let xb = Array.copy b in
  let d = Array.make (max rows 1) 0.0 in
  let has_artificials = sp.s_ncols > non_artificial in
  let basic_value c =
    let acc = ref 0.0 in
    for r = 0 to rows - 1 do
      acc := !acc +. (c.(basis.(r)) *. xb.(r))
    done;
    !acc
  in
  let feasible =
    if not has_artificials then true
    else begin
      (* Phase 1: maximize -(sum of artificials). *)
      let c1 = Array.make sp.s_ncols 0.0 in
      for j = non_artificial to sp.s_ncols - 1 do
        c1.(j) <- -1.0
      done;
      (match run_revised sp binv basis xb c1 ~limit:sp.s_ncols with
      | `Unbounded -> () (* cannot happen: phase-1 objective is bounded *)
      | `Optimal -> ());
      if basic_value c1 < -.eps then false
      else begin
        (* Drive any artificial still basic (at zero) out of the basis. *)
        for r = 0 to rows - 1 do
          if basis.(r) >= non_artificial then begin
            let found = ref (-1) in
            for j = 0 to non_artificial - 1 do
              if !found < 0 && Float.abs (direction_row sp binv ~row:r j) > eps then
                found := j
            done;
            if !found >= 0 then begin
              direction sp binv d !found;
              eta_update binv xb rows ~row:r d;
              basis.(r) <- !found
            end
          end
        done;
        true
      end
    end
  in
  if not feasible then Infeasible
  else begin
    (* Phase 2: entering variables restricted to non-artificial columns;
       any artificial left basic sits at value 0 in a redundant row. *)
    match run_revised sp binv basis xb sp.s_obj ~limit:non_artificial with
    | `Unbounded -> Unbounded
    | `Optimal ->
      let x = Array.make sp.s_nvars 0.0 in
      for r = 0 to rows - 1 do
        if basis.(r) < sp.s_nvars then x.(basis.(r)) <- xb.(r)
      done;
      Optimal { solution = x; value = basic_value sp.s_obj }
  end

let maximize objective constraints = solve { objective; constraints }
