type t = int array

let degree a =
  let rec go i = if i < 0 then -1 else if a.(i) <> 0 then i else go (i - 1) in
  go (Array.length a - 1)

let eval a x =
  let acc = ref 0 in
  for i = Array.length a - 1 downto 0 do
    acc := Field.add (Field.mul !acc x) a.(i)
  done;
  !acc

let add a b =
  let n = max (Array.length a) (Array.length b) in
  Array.init n (fun i ->
      let ca = if i < Array.length a then a.(i) else 0 in
      let cb = if i < Array.length b then b.(i) else 0 in
      Field.add ca cb)

let mul a b =
  if degree a < 0 || degree b < 0 then [||]
  else begin
    let out = Array.make (Array.length a + Array.length b - 1) 0 in
    Array.iteri
      (fun i ca ->
        if ca <> 0 then
          Array.iteri
            (fun j cb -> out.(i + j) <- Field.add out.(i + j) (Field.mul ca cb))
            b)
      a;
    out
  end

let scale c a = Array.map (Field.mul c) a

let divmod a b =
  let db = degree b in
  if db < 0 then raise Division_by_zero;
  let r = Array.copy a in
  let da = degree a in
  if da < db then ([| 0 |], r)
  else begin
    let q = Array.make (da - db + 1) 0 in
    let lead_inv = Field.inv b.(db) in
    for i = da - db downto 0 do
      let coeff = Field.mul r.(i + db) lead_inv in
      q.(i) <- coeff;
      if coeff <> 0 then
        for j = 0 to db do
          r.(i + j) <- Field.sub r.(i + j) (Field.mul coeff b.(j))
        done
    done;
    (q, r)
  end

let random rng ~degree:d ~secret =
  if d < 0 then invalid_arg "Poly.random: negative degree";
  let a = Array.init (d + 1) (fun _ -> Field.random rng) in
  a.(0) <- Field.of_int secret;
  if d >= 1 && a.(d) = 0 then a.(d) <- Field.random_nonzero rng;
  a

let interpolate points =
  let xs = List.map fst points in
  if List.length (List.sort_uniq compare xs) <> List.length xs then
    invalid_arg "Poly.interpolate: duplicate x-coordinates";
  List.fold_left
    (fun acc (xi, yi) ->
      (* Lagrange basis polynomial for xi, scaled by yi. *)
      let basis =
        List.fold_left
          (fun b (xj, _) ->
            if xj = xi then b
            else begin
              let denom_inv = Field.inv (Field.sub xi xj) in
              (* b := b * (x - xj) / (xi - xj) *)
              mul b [| Field.mul (Field.neg xj) denom_inv; denom_inv |]
            end)
          [| 1 |] points
      in
      add acc (scale yi basis))
    [| 0 |] points

let equal a b =
  let d = max (degree a) (degree b) in
  let coeff c i = if i < Array.length c then c.(i) else 0 in
  let rec go i = i > d || (coeff a i = coeff b i && go (i + 1)) in
  go 0
