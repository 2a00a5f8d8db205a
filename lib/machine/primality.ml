(* Modular multiplication of residues a, b in [0, m), for every modulus
   up to max_int = 2^62 - 1, in three regimes chosen so that no
   intermediate exceeds max_int: the plain product below 2^31; below 2^48,
   Horner over the four 14-bit digits of [b] (acc * 2^14 and a * digit both
   stay below 2^62); above that, Russian-peasant doubling with an
   overflow-free add-mod. Each call counts as one modular multiplication
   for complexity accounting (the digit and doubling steps are how a
   fixed-width ALU would implement it; charging per high-level mulmod keeps
   the cost model machine-independent). *)
let addmod x y m =
  let s = x - (m - y) in
  if s < 0 then s + m else s

(* acc * 2^14 + a * d (mod m), for one 14-bit digit d of the multiplier. *)
let digit_step a m acc d = ((acc lsl 14) mod m + (a * d mod m)) mod m

let mulmod a b m =
  if m < 1 lsl 31 then a * b mod m
  else if m < 1 lsl 48 then begin
    let acc = a * (b lsr 42) mod m in
    let acc = digit_step a m acc ((b lsr 28) land 0x3fff) in
    let acc = digit_step a m acc ((b lsr 14) land 0x3fff) in
    digit_step a m acc (b land 0x3fff)
  end
  else begin
    let rec go a b acc =
      if b = 0 then acc
      else begin
        let acc = if b land 1 = 1 then addmod acc a m else acc in
        go (addmod a a m) (b lsr 1) acc
      end
    in
    go (a mod m) b 0
  end

(* The modular-multiplication counter is threaded explicitly (created per
   [counted_is_prime] call) rather than kept as module state, so counts
   stay exact when primality games run on several domains at once. *)
let powmod ~ops base e m =
  let rec go base e acc =
    if e = 0 then acc
    else begin
      incr ops;
      let acc = if e land 1 = 1 then mulmod acc base m else acc in
      go (mulmod base base m) (e lsr 1) acc
    end
  in
  go (base mod m) e 1

(* Deterministic Miller–Rabin bases valid for all inputs < 3.3 * 10^24 ⊇
   63-bit range. *)
let bases = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]

let miller_rabin ~ops n =
  if n < 2 then false
  else if n mod 2 = 0 then n = 2
  else begin
    let rec split d s = if d mod 2 = 0 then split (d / 2) (s + 1) else (d, s) in
    let d, s = split (n - 1) 0 in
    let witness a =
      let a = a mod n in
      if a = 0 then false
      else begin
        let x = powmod ~ops a d n in
        if x = 1 || x = n - 1 then false
        else begin
          let rec loop x i =
            if i = s - 1 then true
            else begin
              incr ops;
              let x = mulmod x x n in
              if x = n - 1 then false else loop x (i + 1)
            end
          in
          loop x 0
        end
      end
    in
    not (List.exists witness bases)
  end

let counted_is_prime n =
  let ops = ref 0 in
  let result = miller_rabin ~ops n in
  (result, !ops)

let is_prime n = fst (counted_is_prime n)

type spec = {
  bits : int;
  cost_per_op : float;
  samples : int;
  reward_correct : float;
  penalty_wrong : float;
  reward_safe : float;
}

let default_spec ~bits ~cost_per_op =
  { bits; cost_per_op; samples = 400; reward_correct = 10.0; penalty_wrong = 10.0; reward_safe = 1.0 }

let machine_names = [| "solve"; "safe"; "guess-prime"; "guess-composite" |]

(* Actions: 0 = declare composite, 1 = declare prime, 2 = abstain.

   The type space is balanced: half primes, half composites, so that
   declaring blindly is a fair bet (expected 0) and the tension is exactly
   the paper's "compute for $10 or take the safe $1".

   Each sampled input comes with the Miller–Rabin operation count of the
   one [counted_is_prime] call that accepted it, so the game never tests an
   input twice. The draw order is part of every E6 table: one [random_odd]
   per scan start, one more when a scan gives up. *)
let sample_inputs rng spec =
  if spec.bits < 5 || spec.bits > 62 then invalid_arg "Primality: bits in [5, 62]";
  let base = 1 lsl (spec.bits - 1) in
  let random_odd () =
    let x = base + Bn_util.Prng.int rng base in
    if x mod 2 = 0 then x + 1 else x
  in
  let rec sample_with want_prime =
    let test x =
      let p, ops = counted_is_prime x in
      if p = want_prime then Some (x, ops) else None
    in
    let rec scan x tries =
      if tries > 4 * spec.bits * spec.bits then
        match test (random_odd ()) with Some s -> s | None -> sample_with want_prime
      else match test x with Some s -> s | None -> scan (x + 2) (tries + 1)
    in
    scan (random_odd ()) 0
  in
  Array.init spec.samples (fun i -> sample_with (i mod 2 = 0))

let game rng spec =
  Bn_obs.Obs.span "primality.game" @@ fun () ->
  let inputs = sample_inputs rng spec in
  (* [sample_inputs] puts the primes at the even indices. *)
  let truth idx = idx mod 2 = 0 in
  let costs = Array.map (fun (_, ops) -> float_of_int ops) inputs in
  let solve =
    {
      Machine.name = "solve";
      act = (fun idx -> Bn_util.Dist.return (if truth idx then 1 else 0));
      complexity = (fun idx -> costs.(idx));
      randomized = false;
    }
  in
  let safe = Machine.constant "safe" ~complexity:(fun _ -> 1.0) 2 in
  let guess_prime = Machine.constant "guess-prime" ~complexity:(fun _ -> 1.0) 1 in
  let guess_composite = Machine.constant "guess-composite" ~complexity:(fun _ -> 1.0) 0 in
  let prior = Bn_util.Dist.uniform (List.init spec.samples (fun i -> [| i |])) in
  Machine_game.create
    ~machines:[| [| solve; safe; guess_prime; guess_composite |] |]
    ~num_types:[| spec.samples |]
    ~prior
    ~utility:(fun ~player:_ ~types ~acts ~complexities ->
      let idx = types.(0) in
      let base =
        match acts.(0) with
        | 2 -> spec.reward_safe
        | a ->
          let correct = (a = 1) = truth idx in
          if correct then spec.reward_correct else -.spec.penalty_wrong
      in
      base -. (spec.cost_per_op *. complexities.(0)))

let utilities rng spec =
  let g = game rng spec in
  List.init 4 (fun m ->
      (machine_names.(m), Machine_game.expected_utility g ~choice:[| m |] ~player:0))

let equilibrium_choice rng spec =
  let us = utilities rng spec in
  let best = ref 0 and best_u = ref neg_infinity in
  List.iteri (fun i (_, u) -> if u > !best_u then begin best := i; best_u := u end) us;
  !best

let crossover_bits ?(lo = 6) ?(hi = 48) rng ~cost_per_op =
  let rec go bits =
    if bits > hi then None
    else begin
      let spec = default_spec ~bits ~cost_per_op in
      let us = utilities (Bn_util.Prng.split rng bits) spec in
      let u_solve = List.assoc "solve" us and u_safe = List.assoc "safe" us in
      if u_safe > u_solve then Some bits else go (bits + 1)
    end
  in
  go lo
