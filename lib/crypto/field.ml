let p = 2147483647

let of_int x =
  let r = x mod p in
  if r < 0 then r + p else r

let add a b =
  let s = a + b in
  if s >= p then s - p else s

let sub a b = if a >= b then a - b else a - b + p

let mul a b = a * b mod p

let neg a = if a = 0 then 0 else p - a

let rec pow x e =
  if e = 0 then 1
  else begin
    let half = pow x (e / 2) in
    let sq = mul half half in
    if e land 1 = 1 then mul sq x else sq
  end

let inv x = if x = 0 then raise Division_by_zero else pow x (p - 2)


let random rng = Bn_util.Prng.int rng p

let rec random_nonzero rng =
  let x = random rng in
  if x = 0 then random_nonzero rng else x
