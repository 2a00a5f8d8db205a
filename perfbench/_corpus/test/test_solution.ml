module B = Beyond_nash
module S = B.Solution

let test_nash_equals_robust_10 () =
  List.iter
    (fun g ->
      B.Normal_form.iter_profiles g (fun p ->
          let prof = B.Mixed.pure_profile g p in
          Alcotest.(check bool) "Nash = Robust(1,0)"
            (S.check g prof S.Nash)
            (S.check g prof (S.Robust (1, 0)))))
    [ B.Games.prisoners_dilemma; B.Games.chicken; B.Games.stag_hunt ]

let test_classify_coordination () =
  let g = B.Games.coordination_01 5 in
  let all0 = B.Mixed.pure_profile g (Array.make 5 0) in
  match S.classify g all0 with
  | `Robust (k, t) ->
    Alcotest.(check int) "k = 1" 1 k;
    Alcotest.(check int) "t = 0" 0 t
  | `Not_nash -> Alcotest.fail "all-0 is Nash"

let test_classify_bargaining () =
  let g = B.Games.bargaining 4 in
  let stay = B.Mixed.pure_profile g (Array.make 4 0) in
  match S.classify g stay with
  | `Robust (k, t) ->
    Alcotest.(check int) "maximally resilient" 4 k;
    Alcotest.(check int) "not immune" 0 t
  | `Not_nash -> Alcotest.fail "all-stay is Nash"

let test_classify_not_nash () =
  let g = B.Games.prisoners_dilemma in
  let cc = B.Mixed.pure_profile g [| 0; 0 |] in
  Alcotest.(check bool) "CC not Nash" true (S.classify g cc = `Not_nash)

let test_concept_checks () =
  let g = B.Games.bargaining 3 in
  let stay = B.Mixed.pure_profile g (Array.make 3 0) in
  Alcotest.(check bool) "resilient 2" true (S.check g stay (S.Resilient 2));
  Alcotest.(check bool) "immune 1 fails" false (S.check g stay (S.Immune 1))

let test_computational_nash_bridge () =
  let g = B.Comp_roshambo.game () in
  Alcotest.(check bool) "no profile passes" true
    (List.for_all
       (fun choice -> not (S.computational_nash g ~choice))
       (B.Combin.profiles [| 4; 4 |]))

let test_generalized_nash_bridge () =
  let t = B.Aware_examples.with_awareness ~p:0.25 in
  let eqs = B.Aware_examples.generalized_equilibria ~p:0.25 in
  List.iter
    (fun prof -> Alcotest.(check bool) "bridge agrees" true (S.generalized_nash t prof))
    eqs

let test_pp_concept () =
  let render c = Format.asprintf "%a" S.pp_concept c in
  Alcotest.(check string) "nash" "Nash" (render S.Nash);
  Alcotest.(check string) "resilient" "3-resilient" (render (S.Resilient 3));
  Alcotest.(check string) "robust" "(2,1)-robust" (render (S.Robust (2, 1)))

let suite =
  [
    Alcotest.test_case "Nash = Robust(1,0)" `Quick test_nash_equals_robust_10;
    Alcotest.test_case "classify: coordination" `Quick test_classify_coordination;
    Alcotest.test_case "classify: bargaining" `Quick test_classify_bargaining;
    Alcotest.test_case "classify: not Nash" `Quick test_classify_not_nash;
    Alcotest.test_case "concept checks" `Quick test_concept_checks;
    Alcotest.test_case "computational bridge" `Quick test_computational_nash_bridge;
    Alcotest.test_case "generalized bridge" `Quick test_generalized_nash_bridge;
    Alcotest.test_case "pp concept" `Quick test_pp_concept;
  ]
