module B = Beyond_nash
module SS = B.Steady_state

(* {1 Analytic distribution} *)

let test_max_entropy_normalized () =
  let p = SS.max_entropy ~threshold:5 ~money_per_agent:2.5 in
  Alcotest.(check int) "k + 1 bins" 6 (Array.length p);
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 p);
  Array.iter (fun q -> Alcotest.(check bool) "probability" true (q >= 0.0 && q <= 1.0)) p

let test_max_entropy_mean () =
  List.iter
    (fun m ->
      let p = SS.max_entropy ~threshold:8 ~money_per_agent:m in
      Alcotest.(check (float 1e-6)) (Printf.sprintf "mean %.2f" m) m (SS.mean_of p))
    [ 0.5; 2.0; 4.0; 6.3; 7.5 ]

let test_max_entropy_uniform_at_half () =
  (* m = k/2 means λ = 1: the uniform distribution on {0 … k}. *)
  let p = SS.max_entropy ~threshold:5 ~money_per_agent:2.5 in
  Array.iter
    (fun q -> Alcotest.(check (float 1e-9)) "uniform" (1.0 /. 6.0) q)
    p

let test_max_entropy_monotone_shape () =
  (* m < k/2 tilts mass to the poor side (λ < 1, decreasing P). *)
  let p = SS.max_entropy ~threshold:5 ~money_per_agent:1.0 in
  for j = 0 to 4 do
    Alcotest.(check bool) "decreasing" true (p.(j) > p.(j + 1))
  done

let test_max_entropy_rejects () =
  Alcotest.check_raises "m >= k"
    (Invalid_argument "Steady_state.max_entropy: need 0 < money_per_agent < threshold")
    (fun () -> ignore (SS.max_entropy ~threshold:3 ~money_per_agent:3.0))

(* {1 Chi-square machinery} *)

let test_critical_99_sanity () =
  (* Table values: χ²₀.₉₉(5) = 15.09, χ²₀.₉₉(10) = 23.21. *)
  Alcotest.(check bool) "df=5 near 15.09" true (Float.abs (SS.critical_99 ~df:5 -. 15.09) < 0.3);
  Alcotest.(check bool) "df=10 near 23.21" true (Float.abs (SS.critical_99 ~df:10 -. 23.21) < 0.3)

let test_chi_square_exact_fit () =
  let expected = [| 0.25; 0.25; 0.25; 0.25 |] in
  let g = SS.chi_square ~observed:[| 250; 250; 250; 250 |] ~expected in
  Alcotest.(check (float 1e-9)) "X^2 = 0 on exact fit" 0.0 g.SS.stat;
  Alcotest.(check bool) "pass" true g.SS.pass;
  Alcotest.(check (float 1e-9)) "tv = 0" 0.0 g.SS.tv

let test_chi_square_detects_skew () =
  let expected = [| 0.25; 0.25; 0.25; 0.25 |] in
  let g = SS.chi_square ~observed:[| 700; 100; 100; 100 |] ~expected in
  Alcotest.(check bool) "reject" false g.SS.pass;
  Alcotest.(check bool) "tv large" true (g.SS.tv > 0.3)

let test_chi_square_merges_small_bins () =
  (* Tiny expected tail bins must be merged, shrinking df below bins-1. *)
  let expected = [| 0.5; 0.49; 0.005; 0.005 |] in
  let g = SS.chi_square ~observed:[| 50; 49; 1; 0 |] ~expected in
  Alcotest.(check bool) "df < 3 after merging" true (g.SS.df < 3);
  Alcotest.(check bool) "still passes" true g.SS.pass

(* {1 The simulator against the law} *)

let threshold = 5
let money = 2.5

let run_gof ~money_sim ~money_law =
  let n = 10_000 in
  let params = { (B.Scrip.default_params ~n) with B.Scrip.rounds = 0 } in
  let st =
    B.Scrip_soa.run ~jobs:2 ~shards:16 ~seed:2008 ~steps:200 ~params
      ~kind_of:(fun _ -> B.Scrip.Standard threshold)
      ~money_per_agent:money_sim ()
  in
  let observed = Array.sub st.B.Scrip_soa.dist 0 (threshold + 1) in
  SS.chi_square ~observed ~expected:(SS.max_entropy ~threshold ~money_per_agent:money_law)

let test_simulator_matches_law () =
  let g = run_gof ~money_sim:money ~money_law:money in
  Alcotest.(check bool)
    (Printf.sprintf "chi-square passes (X^2 = %.2f <= %.2f)" g.SS.stat g.SS.critical)
    true g.SS.pass;
  Alcotest.(check bool) "tv small" true (g.SS.tv < 0.02)

let test_simulator_rejects_wrong_law () =
  (* Same run scored against the law for a different money supply: the
     test must have power, not just fail to reject. *)
  let g = run_gof ~money_sim:money ~money_law:1.2 in
  Alcotest.(check bool) "wrong money supply rejected" false g.SS.pass

let test_gof_helper_consistent () =
  let n = 10_000 in
  let params = { (B.Scrip.default_params ~n) with B.Scrip.rounds = 0 } in
  let st =
    B.Scrip_soa.run ~jobs:1 ~shards:16 ~seed:2008 ~steps:200 ~params
      ~kind_of:(fun _ -> B.Scrip.Standard threshold)
      ~money_per_agent:money ()
  in
  let g = B.Scrip_soa.goodness_of_fit st ~threshold ~money_per_agent:money in
  Alcotest.(check bool) "wrapper passes too" true g.SS.pass

let suite =
  [
    Alcotest.test_case "max-entropy: normalized" `Quick test_max_entropy_normalized;
    Alcotest.test_case "max-entropy: mean pinned" `Quick test_max_entropy_mean;
    Alcotest.test_case "max-entropy: uniform at k/2" `Quick test_max_entropy_uniform_at_half;
    Alcotest.test_case "max-entropy: shape" `Quick test_max_entropy_monotone_shape;
    Alcotest.test_case "max-entropy: domain" `Quick test_max_entropy_rejects;
    Alcotest.test_case "chi-square: critical values" `Quick test_critical_99_sanity;
    Alcotest.test_case "chi-square: exact fit" `Quick test_chi_square_exact_fit;
    Alcotest.test_case "chi-square: power" `Quick test_chi_square_detects_skew;
    Alcotest.test_case "chi-square: bin merging" `Quick test_chi_square_merges_small_bins;
    Alcotest.test_case "simulator: matches analytic law" `Slow test_simulator_matches_law;
    Alcotest.test_case "simulator: rejects wrong law" `Slow test_simulator_rejects_wrong_law;
    Alcotest.test_case "simulator: gof wrapper" `Slow test_gof_helper_consistent;
  ]
