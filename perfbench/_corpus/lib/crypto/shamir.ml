type share = { x : int; y : int }

let share rng ~secret ~threshold ~n =
  if threshold < 0 || threshold >= n then invalid_arg "Shamir.share: need 0 <= threshold < n";
  let f = Poly.random rng ~degree:threshold ~secret in
  List.init n (fun i ->
      let x = i + 1 in
      { x; y = Poly.eval f x })

let reconstruct shares =
  let points = List.map (fun { x; y } -> (x, y)) shares in
  Poly.eval (Poly.interpolate points) 0

(* Berlekamp–Welch: find monic E of degree e and Q of degree <= e + d with
   Q(x_i) = y_i * E(x_i) for all i; then f = Q / E. Unknowns: e coefficients
   of E (the top one is fixed to 1) and e + d + 1 coefficients of Q. *)
let robust_reconstruct ~degree:d ~max_errors:e shares =
  let n = List.length shares in
  if n < d + (2 * e) + 1 then None
  else if e = 0 then begin
    let f = Poly.interpolate (List.map (fun { x; y } -> (x, y)) shares) in
    if Poly.degree f <= d then Some (Poly.eval f 0) else None
  end
  else begin
    let nq = d + e + 1 in
    let nvars = e + nq in
    let row { x; y } =
      (* sum_{j<e} E_j x^j y - sum_{k<nq} Q_k x^k = -y x^e *)
      Array.init nvars (fun v ->
          if v < e then Field.mul y (Field.pow x v)
          else Field.neg (Field.pow x (v - e)))
    in
    let rhs { x; y } = Field.neg (Field.mul y (Field.pow x e)) in
    let a = Array.of_list (List.map row shares) in
    let b = Array.of_list (List.map rhs shares) in
    match Fieldmat.solve a b with
    | None -> None
    | Some sol ->
      let epoly = Array.init (e + 1) (fun j -> if j = e then 1 else sol.(j)) in
      let qpoly = Array.init nq (fun k -> sol.(e + k)) in
      let q, r = Poly.divmod qpoly epoly in
      if Poly.degree r >= 0 then None
      else begin
        (* Verify: at most e disagreements with the decoded polynomial. *)
        let errors =
          List.length (List.filter (fun { x; y } -> Poly.eval q x <> y) shares)
        in
        if errors <= e && Poly.degree q <= d then Some (Poly.eval q 0) else None
      end
  end

let verify_consistent ~degree shares =
  match shares with
  | [] -> true
  | _ ->
    let points = List.map (fun { x; y } -> (x, y)) shares in
    let f = Poly.interpolate points in
    Poly.degree f <= degree
