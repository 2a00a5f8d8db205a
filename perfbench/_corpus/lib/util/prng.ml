type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 finalizer: xor-shift / multiply avalanche of the counter. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

(* Indexed split: the child's state is a pure avalanche of (state, i), so
   it neither advances the parent nor depends on how many siblings were
   split before it — the property that makes parallel Monte Carlo loops
   bit-identical for any domain count. The double mix (with a xor of a
   second odd constant in between) keeps child streams disjoint from the
   parent's own SplitMix64 counter stream. *)
let split t i =
  let z = Int64.add t.state (Int64.mul golden_gamma (Int64.of_int (i + 1))) in
  { state = mix (Int64.logxor (mix z) 0xA5A5B4E1D3C2F687L) }

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t =
  (* 53 high-quality bits into the mantissa. *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let exponential t lambda =
  if lambda <= 0.0 then invalid_arg "Prng.exponential: lambda must be positive";
  -.log (1.0 -. float t) /. lambda

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Prng.geometric: p must be in (0,1]";
  if p = 1.0 then 0
  else
    let u = 1.0 -. float t in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))
