module Prng = Bn_util.Prng

type transcript = {
  coin : int option;
  aborted_by : int option;
  commitments_checked : bool;
}

let fresh_party rng =
  let bit = if Prng.bool rng then 1 else 0 in
  let nonce = Prng.int rng 1_000_000_000 in
  (bit, nonce, Hashing.Commit.commit ~value:bit ~nonce)

let honest rng =
  let b1, n1, c1 = fresh_party rng in
  let b2, n2, c2 = fresh_party rng in
  let ok =
    Hashing.Commit.verify c1 ~value:b1 ~nonce:n1 && Hashing.Commit.verify c2 ~value:b2 ~nonce:n2
  in
  { coin = (if ok then Some (b1 lxor b2) else None); aborted_by = None; commitments_checked = ok }

let biased_aborter rng ~prefer =
  let b1, n1, c1 = fresh_party rng in
  let b2, n2, c2 = fresh_party rng in
  (* Party 1 opens first; party 2 now knows the coin and aborts if it
     dislikes it. *)
  let coin = b1 lxor b2 in
  if coin <> prefer then { coin = None; aborted_by = Some 2; commitments_checked = true }
  else begin
    let ok =
      Hashing.Commit.verify c1 ~value:b1 ~nonce:n1 && Hashing.Commit.verify c2 ~value:b2 ~nonce:n2
    in
    { coin = (if ok then Some coin else None); aborted_by = None; commitments_checked = ok }
  end

let cheater_caught rng =
  let b1, _n1, _c1 = fresh_party rng in
  let b2, n2, c2 = fresh_party rng in
  (* Party 2 opens the flipped bit with the old nonce: detected. *)
  let forged = 1 - b2 in
  let ok = Hashing.Commit.verify c2 ~value:forged ~nonce:n2 in
  ignore b1;
  { coin = None; aborted_by = None; commitments_checked = ok }

let completion_bias rng ~trials ~prefer =
  let completed = ref 0 and matching = ref 0 in
  for _ = 1 to trials do
    match biased_aborter rng ~prefer with
    | { coin = Some c; _ } ->
      incr completed;
      if c = prefer then incr matching
    | { coin = None; _ } -> ()
  done;
  let rate = float_of_int !completed /. float_of_int trials in
  let bias = if !completed = 0 then 0.0 else float_of_int !matching /. float_of_int !completed in
  (rate, bias)
