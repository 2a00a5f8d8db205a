module B = Beyond_nash
module R = B.Rational_ss

let u = R.default_utility

let test_equilibrium_bound () =
  Alcotest.(check (float 1e-9)) "n=3 bound" 0.5 (R.honest_equilibrium_alpha u ~n:3);
  Alcotest.(check (float 1e-9)) "n=2 bound" (2.0 /. 3.0) (R.honest_equilibrium_alpha u ~n:2)

let test_deviation_gain_signs () =
  Alcotest.(check bool) "below bound: negative" true (R.deviation_gain u ~n:3 ~alpha:0.3 < 0.0);
  Alcotest.(check bool) "above bound: positive" true (R.deviation_gain u ~n:3 ~alpha:0.8 > 0.0);
  Alcotest.(check (float 1e-9)) "at bound: zero" 0.0
    (R.deviation_gain u ~n:3 ~alpha:(R.honest_equilibrium_alpha u ~n:3))

let test_one_shot_impossibility () =
  (* alpha = 1 is the deterministic protocol: always profitable to
     withhold, for any positive exclusivity. *)
  Alcotest.(check bool) "HT impossibility" true (R.deviation_gain u ~n:3 ~alpha:1.0 > 0.0)

let test_honest_run_everyone_learns () =
  let o = R.simulate (B.Prng.create 5) ~n:4 ~alpha:0.5 ~utility:u ~withholder:None ~secret:321 in
  Alcotest.(check bool) "all learn" true (Array.for_all Fun.id o.R.learned);
  Alcotest.(check bool) "not aborted" false o.R.aborted;
  Array.iter (fun x -> Alcotest.(check (float 1e-9)) "utility = learn" u.R.learn x) o.R.utilities

let test_withholder_on_fake_round_caught () =
  (* With alpha tiny the first round is almost surely fake: the deviator is
     caught, nobody learns. *)
  let o = R.simulate (B.Prng.create 7) ~n:3 ~alpha:0.0001 ~utility:u ~withholder:(Some 1) ~secret:5 in
  Alcotest.(check bool) "aborted" true o.R.aborted;
  Alcotest.(check bool) "nobody learned" true (Array.for_all not o.R.learned)

let test_withholder_expected_rounds_one () =
  (* The deviant game always ends in round 1 (learn alone or get caught). *)
  for seed = 1 to 20 do
    let o = R.simulate (B.Prng.create seed) ~n:3 ~alpha:0.5 ~utility:u ~withholder:(Some 0) ~secret:5 in
    Alcotest.(check int) "one round" 1 o.R.rounds
  done

let test_expected_rounds_geometric () =
  Alcotest.(check (float 1e-9)) "alpha 0.25 -> 4" 4.0 (R.expected_rounds ~alpha:0.25);
  let total = ref 0 in
  let trials = 2000 in
  for seed = 1 to trials do
    let o = R.simulate (B.Prng.create seed) ~n:3 ~alpha:0.25 ~utility:u ~withholder:None ~secret:1 in
    total := !total + o.R.rounds
  done;
  let mean = float_of_int !total /. float_of_int trials in
  Alcotest.(check bool) "empirical mean near 4" true (Float.abs (mean -. 4.0) < 0.4)

let test_empirical_matches_analytic () =
  let rng = B.Prng.create 42 in
  List.iter
    (fun alpha ->
      let measured = R.empirical_deviation_gain rng ~n:3 ~alpha ~utility:u ~trials:4000 in
      let analytic = R.deviation_gain u ~n:3 ~alpha in
      Alcotest.(check bool)
        (Printf.sprintf "alpha=%.2f" alpha)
        true
        (Float.abs (measured -. analytic) < 0.1))
    [ 0.2; 0.5; 0.8 ]

let test_validation () =
  Alcotest.check_raises "alpha out of range"
    (Invalid_argument "Rational_ss.simulate: alpha in (0,1]") (fun () ->
      ignore (R.simulate (B.Prng.create 1) ~n:3 ~alpha:0.0 ~utility:u ~withholder:None ~secret:1));
  Alcotest.check_raises "n too small" (Invalid_argument "Rational_ss.simulate: need n >= 2")
    (fun () ->
      ignore (R.simulate (B.Prng.create 1) ~n:1 ~alpha:0.5 ~utility:u ~withholder:None ~secret:1))

let bound_monotone_in_n =
  QCheck.Test.make ~count:30 ~name:"rational-ss: equilibrium bound shrinks with n"
    QCheck.(int_range 2 20)
    (fun n -> R.honest_equilibrium_alpha u ~n:(n + 1) < R.honest_equilibrium_alpha u ~n +. 1e-12)

let suite =
  [
    Alcotest.test_case "equilibrium bound" `Quick test_equilibrium_bound;
    Alcotest.test_case "deviation gain signs" `Quick test_deviation_gain_signs;
    Alcotest.test_case "one-shot impossibility" `Quick test_one_shot_impossibility;
    Alcotest.test_case "honest run" `Quick test_honest_run_everyone_learns;
    Alcotest.test_case "withholder caught" `Quick test_withholder_on_fake_round_caught;
    Alcotest.test_case "deviant ends in round 1" `Quick test_withholder_expected_rounds_one;
    Alcotest.test_case "geometric rounds" `Slow test_expected_rounds_geometric;
    Alcotest.test_case "empirical = analytic" `Slow test_empirical_matches_analytic;
    Alcotest.test_case "validation" `Quick test_validation;
    QCheck_alcotest.to_alcotest bound_monotone_in_n;
  ]
