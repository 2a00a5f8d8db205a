module B = Beyond_nash
module C = B.Canned
module E = B.Extensive
module S = B.Sunspot

let check_float = Alcotest.(check (float 1e-9))

(* {1 Centipede} *)

let test_centipede_backward_induction () =
  (* Backward induction takes immediately, for every length. *)
  List.iter
    (fun rounds ->
      let g = C.centipede ~rounds in
      let profile, value = E.backward_induction g in
      Alcotest.(check (option string))
        (Printf.sprintf "take at the root (rounds=%d)" rounds)
        (Some "take")
        (List.assoc_opt "node0" profile.(0));
      check_float "player 0 gets 2" 2.0 value.(0);
      check_float "player 1 gets 0" 0.0 value.(1))
    [ 1; 2; 4; 6 ]

let test_centipede_cooperation_dominates_spe () =
  (* Passing to the end would give both far more than the SPE outcome. *)
  let rounds = 6 in
  let g = C.centipede ~rounds in
  let pass_all player =
    List.map (fun (info, _) -> (info, "pass")) (E.info_sets g ~player)
  in
  let u =
    E.expected_payoffs g
      [| E.behavioral_of_pure (pass_all 0); E.behavioral_of_pure (pass_all 1) |]
  in
  check_float "both get rounds+1" 7.0 u.(0);
  Alcotest.(check bool) "cooperation beats SPE" true (u.(0) > 2.0 && u.(1) > 0.0)

let test_centipede_is_spe_nash () =
  let g = C.centipede ~rounds:3 in
  let profile, _ = E.backward_induction g in
  Alcotest.(check bool) "SPE is Nash" true (E.is_nash g (Array.map E.behavioral_of_pure profile))

let test_centipede_validation () =
  Alcotest.check_raises "rounds >= 1" (Invalid_argument "Canned.centipede: rounds >= 1")
    (fun () -> ignore (C.centipede ~rounds:0))

(* {1 Ultimatum} *)

let test_ultimatum_spe_offers_zero () =
  let g = C.ultimatum ~pie:5 in
  let profile, value = E.backward_induction g in
  Alcotest.(check (option string)) "offer 0" (Some "offer-0")
    (List.assoc_opt "proposer" profile.(0));
  check_float "proposer takes it all" 5.0 value.(0);
  (* The responder accepts every offer in the SPE (indifferent at 0, ties
     break toward the first listed move, accept). *)
  List.iter
    (fun (info, _) ->
      Alcotest.(check (option string)) "accepts" (Some "accept") (List.assoc_opt info profile.(1)))
    (E.info_sets g ~player:1)

let test_ultimatum_fair_split_is_nash_not_spe () =
  (* "Reject anything below half" supports a fair split as Nash — the
     non-credible-threat equilibrium backward induction kills. *)
  let pie = 4 in
  let g = C.ultimatum ~pie in
  let responder =
    List.map
      (fun (info, _) ->
        (* info = "offerK" *)
        let k = int_of_string (String.sub info 5 (String.length info - 5)) in
        (info, if k >= pie / 2 then "accept" else "reject"))
      (E.info_sets g ~player:1)
  in
  let proposer = [ ("proposer", Printf.sprintf "offer-%d" (pie / 2)) ] in
  let profile = [| E.behavioral_of_pure proposer; E.behavioral_of_pure responder |] in
  Alcotest.(check bool) "fair split is Nash" true (E.is_nash g profile);
  let u = E.expected_payoffs g profile in
  check_float "responder gets half" 2.0 u.(1)

(* {1 Trust} *)

let test_trust_unravels () =
  let g = C.trust ~multiplier:4 in
  let profile, value = E.backward_induction g in
  Alcotest.(check (option string)) "trustee grabs" (Some "grab")
    (List.assoc_opt "trustee" profile.(1));
  Alcotest.(check (option string)) "investor keeps" (Some "keep")
    (List.assoc_opt "investor" profile.(0));
  check_float "SPE payoff 1" 1.0 value.(0)

let test_trust_cooperative_outcome_better () =
  let g = C.trust ~multiplier:4 in
  let u =
    E.expected_payoffs g
      [|
        E.behavioral_of_pure [ ("investor", "invest") ];
        E.behavioral_of_pure [ ("trustee", "share") ];
      |]
  in
  Alcotest.(check bool) "both better than SPE" true (u.(0) > 1.0 && u.(1) > 1.0)

(* {1 Sunspot} *)

let test_sunspot_validity () =
  let g = B.Games.chicken in
  let eqs = B.Nash.support_enumeration_2p g in
  let t = S.make (List.map (fun p -> (1.0, p)) eqs) in
  Alcotest.(check bool) "all-Nash sunspot valid" true (S.is_valid g t);
  let bogus = S.make [ (1.0, B.Mixed.pure_profile g [| 0; 0 |]) ] in
  Alcotest.(check bool) "non-Nash component rejected" false (S.is_valid g bogus)

let test_sunspot_payoffs_convex () =
  let g = B.Games.battle_of_sexes in
  match B.Nash.pure_equilibria g with
  | [ e1; e2 ] ->
    let t =
      S.make [ (0.5, B.Mixed.pure_profile g e1); (0.5, B.Mixed.pure_profile g e2) ]
    in
    let u = S.expected_payoffs g t in
    (* 50/50 over (2,1) and (1,2). *)
    check_float "player 0" 1.5 u.(0);
    check_float "player 1" 1.5 u.(1)
  | _ -> Alcotest.fail "BoS has two pure equilibria"

let test_mediator_gap_chicken_positive () =
  Alcotest.(check bool) "private mediation worth > 1" true
    (S.mediator_gap B.Games.chicken > 1.0)

let test_mediator_gap_pd_zero () =
  (* PD: the only CE is (D,D), which is also the only Nash — no gap. *)
  check_float "no gap in PD" 0.0 (S.mediator_gap B.Games.prisoners_dilemma)

let test_sunspot_sampling () =
  let g = B.Games.chicken in
  let eqs = B.Nash.pure_equilibria g in
  match eqs with
  | e1 :: e2 :: _ ->
    let t = S.make [ (0.5, B.Mixed.pure_profile g e1); (0.5, B.Mixed.pure_profile g e2) ] in
    let rng = B.Prng.create 3 in
    let seen = Hashtbl.create 4 in
    for _ = 1 to 200 do
      let acts, payoffs = S.sample_and_play rng g t in
      Hashtbl.replace seen (acts.(0), acts.(1)) ();
      (* Payoffs must match the realized profile. *)
      check_float "payoff consistent" (B.Normal_form.payoff g acts 0) payoffs.(0)
    done;
    Alcotest.(check bool) "both components realized" true (Hashtbl.length seen >= 2)
  | _ -> Alcotest.fail "chicken has two pure equilibria"

let sunspot_weights_normalized =
  QCheck.Test.make ~count:30 ~name:"sunspot: weights normalize"
    QCheck.(pair (float_range 0.1 5.0) (float_range 0.1 5.0))
    (fun (w1, w2) ->
      let g = B.Games.battle_of_sexes in
      match B.Nash.pure_equilibria g with
      | [ e1; e2 ] ->
        let t =
          S.make [ (w1, B.Mixed.pure_profile g e1); (w2, B.Mixed.pure_profile g e2) ]
        in
        Float.abs (List.fold_left ( +. ) 0.0 t.S.weights -. 1.0) < 1e-9
      | _ -> false)

let suite =
  [
    Alcotest.test_case "centipede: backward induction" `Quick test_centipede_backward_induction;
    Alcotest.test_case "centipede: cooperation dominates" `Quick
      test_centipede_cooperation_dominates_spe;
    Alcotest.test_case "centipede: SPE is Nash" `Quick test_centipede_is_spe_nash;
    Alcotest.test_case "centipede: validation" `Quick test_centipede_validation;
    Alcotest.test_case "ultimatum: SPE offers zero" `Quick test_ultimatum_spe_offers_zero;
    Alcotest.test_case "ultimatum: fair split Nash" `Quick test_ultimatum_fair_split_is_nash_not_spe;
    Alcotest.test_case "trust: unravels" `Quick test_trust_unravels;
    Alcotest.test_case "trust: cooperation better" `Quick test_trust_cooperative_outcome_better;
    Alcotest.test_case "sunspot: validity" `Quick test_sunspot_validity;
    Alcotest.test_case "sunspot: convex payoffs" `Quick test_sunspot_payoffs_convex;
    Alcotest.test_case "sunspot: chicken gap" `Quick test_mediator_gap_chicken_positive;
    Alcotest.test_case "sunspot: PD no gap" `Quick test_mediator_gap_pd_zero;
    Alcotest.test_case "sunspot: sampling" `Quick test_sunspot_sampling;
    QCheck_alcotest.to_alcotest sunspot_weights_normalized;
  ]
