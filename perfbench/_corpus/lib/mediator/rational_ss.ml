module Prng = Bn_util.Prng
module Shamir = Bn_crypto.Shamir

type utility = { learn : float; exclusivity : float }

let default_utility = { learn = 1.0; exclusivity = 0.5 }

let honest_equilibrium_alpha u ~n =
  u.learn /. (u.learn +. (float_of_int (n - 1) *. u.exclusivity))

let deviation_gain u ~n ~alpha =
  (alpha *. float_of_int (n - 1) *. u.exclusivity) -. ((1.0 -. alpha) *. u.learn)

let expected_rounds ~alpha =
  if alpha <= 0.0 then infinity else 1.0 /. alpha

type outcome = {
  rounds : int;
  learned : bool array;
  utilities : float array;
  aborted : bool;
}

let utilities_of u learned =
  let n = Array.length learned in
  let not_learned = Array.fold_left (fun acc l -> if l then acc else acc + 1) 0 learned in
  Array.init n (fun i ->
      if learned.(i) then
        u.learn +. (u.exclusivity *. float_of_int (not_learned))
      else 0.0)

let simulate rng ~n ~alpha ~utility ~withholder ~secret =
  if n < 2 then invalid_arg "Rational_ss.simulate: need n >= 2";
  if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Rational_ss.simulate: alpha in (0,1]";
  let learned = Array.make n false in
  let max_rounds = 10_000 in
  let rec round r =
    if r > max_rounds then (r - 1, false)
    else begin
      let real = Prng.float rng < alpha in
      let this_secret = if real then secret else Bn_crypto.Field.random rng in
      (* n-out-of-n sharing: threshold n-1 needs all n shares. *)
      let shares = Array.of_list (Shamir.share rng ~secret:this_secret ~threshold:(n - 1) ~n) in
      match withholder with
      | Some w ->
        (* The withholder receives everyone else's shares and keeps its own:
           it reconstructs alone. The others detect the missing share. *)
        if real then begin
          learned.(w) <- true;
          (r, false)
        end
        else
          (* Fake round: the withholder is exposed; everyone aborts. *)
          (r, true)
      | None ->
        (* All shares exchanged; everyone reconstructs. On a real round the
           dealer's check value confirms it and the protocol ends. *)
        let all = Array.to_list shares in
        let v = Shamir.reconstruct all in
        if real && v = Bn_crypto.Field.of_int secret then begin
          Array.fill learned 0 n true;
          (r, false)
        end
        else round (r + 1)
    end
  in
  let rounds, aborted = round 1 in
  { rounds; learned; utilities = utilities_of utility learned; aborted }

let empirical_deviation_gain ?(pool = Bn_util.Pool.serial) rng ~n ~alpha ~utility ~trials =
  (* Each trial draws from its own index-split stream and lands in its own
     slot, so the estimate is bit-identical for any pool size. *)
  let gains = Array.make trials 0.0 in
  Bn_util.Pool.iter_grid pool
    (fun i ->
      let trial_rng = Prng.split rng i in
      let secret = Prng.int trial_rng 1000 in
      let honest = simulate (Prng.split trial_rng 0) ~n ~alpha ~utility ~withholder:None ~secret in
      let deviant =
        simulate (Prng.split trial_rng 1) ~n ~alpha ~utility ~withholder:(Some 0) ~secret
      in
      gains.(i) <- deviant.utilities.(0) -. honest.utilities.(0))
    (Array.init trials Fun.id);
  Array.fold_left ( +. ) 0.0 gains /. float_of_int trials
