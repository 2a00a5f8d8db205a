(* The KFH maximum-entropy steady state and the chi-square / total
   variation machinery used to verify the SoA simulator against it. *)

let mean_of p =
  let m = ref 0.0 in
  Array.iteri (fun j pj -> m := !m +. (float_of_int j *. pj)) p;
  !m

(* Unnormalized weights λ^j for j = 0..k, normalized afterwards. For λ
   far from 1 the powers under/overflow long before k gets large, so
   work with exp(j · log λ − shift) where shift keeps the largest weight
   at 1. *)
let geometric_family ~threshold lambda =
  let k = threshold in
  let log_l = log lambda in
  let shift = if log_l > 0.0 then float_of_int k *. log_l else 0.0 in
  let w = Array.init (k + 1) (fun j -> exp ((float_of_int j *. log_l) -. shift)) in
  let z = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. z) w

let max_entropy ~threshold ~money_per_agent =
  if threshold < 1 then invalid_arg "Steady_state.max_entropy: threshold < 1";
  let k = float_of_int threshold in
  let m = money_per_agent in
  if m <= 0.0 || m >= k then
    invalid_arg "Steady_state.max_entropy: need 0 < money_per_agent < threshold";
  (* mean(λ) is strictly increasing: 0 at λ→0, k at λ→∞, k/2 at λ=1.
     Bisect on log λ. *)
  let mean_at log_l = mean_of (geometric_family ~threshold (exp log_l)) in
  let lo = ref (-60.0) and hi = ref 60.0 in
  for _ = 1 to 200 do
    let mid = 0.5 *. (!lo +. !hi) in
    if mean_at mid < m then lo := mid else hi := mid
  done;
  geometric_family ~threshold (exp (0.5 *. (!lo +. !hi)))

type gof = { stat : float; df : int; critical : float; tv : float; pass : bool }

let total_variation ~observed ~expected =
  if Array.length observed <> Array.length expected then
    invalid_arg "Steady_state.total_variation: length mismatch";
  let n = Array.fold_left ( + ) 0 observed in
  if n = 0 then invalid_arg "Steady_state.total_variation: no observations";
  let fn = float_of_int n in
  let z = Array.fold_left ( +. ) 0.0 expected in
  let d = ref 0.0 in
  Array.iteri
    (fun j o -> d := !d +. abs_float ((float_of_int o /. fn) -. (expected.(j) /. z)))
    observed;
  0.5 *. !d

let critical_99 ~df =
  (* Wilson–Hilferty: χ²_α ≈ df · (1 − 2/(9 df) + z_α √(2/(9 df)))³ with
     z_{0.99} = 2.326348. *)
  let d = float_of_int (max 1 df) in
  let t = 2.0 /. (9.0 *. d) in
  let c = 1.0 -. t +. (2.326348 *. sqrt t) in
  d *. c *. c *. c

(* Merge adjacent bins (left to right) until each merged bin's expected
   count is >= 5; a trailing underweight remainder is folded into the
   last merged bin. The classical validity rule for Pearson's X². *)
let merge_bins ~counts ~probs =
  let n = float_of_int (Array.fold_left ( + ) 0 counts) in
  let merged = ref [] in
  let acc_o = ref 0 and acc_e = ref 0.0 in
  Array.iteri
    (fun j o ->
      acc_o := !acc_o + o;
      acc_e := !acc_e +. (probs.(j) *. n);
      if !acc_e >= 5.0 then begin
        merged := (!acc_o, !acc_e) :: !merged;
        acc_o := 0;
        acc_e := 0.0
      end)
    counts;
  (match (!merged, !acc_e > 0.0 || !acc_o > 0) with
  | (o, e) :: rest, true -> merged := (o + !acc_o, e +. !acc_e) :: rest
  | [], true -> merged := [ (!acc_o, !acc_e) ]
  | _, false -> ());
  List.rev !merged

let chi_square ~observed ~expected =
  if Array.length observed <> Array.length expected then
    invalid_arg "Steady_state.chi_square: length mismatch";
  let n = Array.fold_left ( + ) 0 observed in
  if n = 0 then invalid_arg "Steady_state.chi_square: no observations";
  let z = Array.fold_left ( +. ) 0.0 expected in
  let probs = Array.map (fun e -> e /. z) expected in
  let bins = merge_bins ~counts:observed ~probs in
  let stat =
    List.fold_left
      (fun acc (o, e) ->
        let d = float_of_int o -. e in
        acc +. (d *. d /. e))
      0.0 bins
  in
  let df = max 1 (List.length bins - 1) in
  let critical = critical_99 ~df in
  {
    stat;
    df;
    critical;
    tv = total_variation ~observed ~expected;
    pass = stat <= critical;
  }
