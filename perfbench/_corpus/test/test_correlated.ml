module B = Beyond_nash
module C = B.Correlated

let test_nash_is_correlated () =
  (* Every Nash equilibrium's product distribution is a correlated
     equilibrium. *)
  List.iter
    (fun g ->
      List.iter
        (fun prof ->
          Alcotest.(check bool) "Nash -> CE" true
            (C.is_correlated_equilibrium g (C.of_mixed g prof)))
        (B.Nash.support_enumeration_2p g))
    [ B.Games.chicken; B.Games.battle_of_sexes; B.Games.matching_pennies ]

let test_non_equilibrium_rejected () =
  (* Point mass on (C,C) in PD is not a correlated equilibrium. *)
  let g = B.Games.prisoners_dilemma in
  Alcotest.(check bool) "CC not CE" false
    (C.is_correlated_equilibrium g (B.Dist.return [| 0; 0 |]))

let test_chicken_max_welfare_beats_nash () =
  let g = B.Games.chicken in
  match C.max_welfare g with
  | None -> Alcotest.fail "LP should succeed"
  | Some (d, welfare) ->
    Alcotest.(check bool) "is CE" true (C.is_correlated_equilibrium g d);
    let best_nash =
      List.fold_left
        (fun acc prof ->
          max acc (B.Mixed.expected_payoff g prof 0 +. B.Mixed.expected_payoff g prof 1))
        neg_infinity
        (B.Nash.support_enumeration_2p g)
    in
    Alcotest.(check bool) "beats Nash hull" true (welfare > best_nash +. 0.5);
    (* The welfare-optimal CE of chicken avoids (dare, dare). *)
    Alcotest.(check (float 1e-6)) "no crash" 0.0 (B.Dist.mass d [| 0; 0 |])

let test_max_welfare_pd_is_dd () =
  (* PD: defect dominates, so the only CE is the point mass on (D,D). *)
  let g = B.Games.prisoners_dilemma in
  match C.max_welfare g with
  | None -> Alcotest.fail "LP should succeed"
  | Some (d, welfare) ->
    Alcotest.(check (float 1e-6)) "mass on DD" 1.0 (B.Dist.mass d [| 1; 1 |]);
    Alcotest.(check (float 1e-6)) "welfare -6" (-6.0) welfare

let test_max_player_bounds_welfare () =
  let g = B.Games.chicken in
  match (C.max_player g ~player:0, C.max_welfare g) with
  | Some (_, v0), Some (_, w) ->
    Alcotest.(check bool) "player max <= welfare max" true (v0 <= w);
    Alcotest.(check bool) "player max >= half welfare by symmetry" true (v0 >= (w /. 2.0) -. 1e-6)
  | _ -> Alcotest.fail "LPs should succeed"

let test_zero_sum_ce_value () =
  (* In matching pennies every CE gives each player the game value 0. *)
  let g = B.Games.matching_pennies in
  match C.max_player g ~player:0 with
  | None -> Alcotest.fail "LP should succeed"
  | Some (_, v) -> Alcotest.(check (float 1e-6)) "value 0" 0.0 v

let ce_polytope_property =
  QCheck.Test.make ~count:30 ~name:"correlated: max_welfare output is always a CE"
    QCheck.(array_of_size (Gen.return 8) (float_range (-3.0) 3.0))
    (fun payoffs ->
      let g =
        B.Normal_form.create ~actions:[| 2; 2 |] (fun p ->
            let idx = (p.(0) * 2) + p.(1) in
            [| payoffs.(idx); payoffs.(4 + idx) |])
      in
      match C.max_welfare g with
      | None -> false
      | Some (d, _) -> C.is_correlated_equilibrium ~eps:1e-5 g d)

let suite =
  [
    Alcotest.test_case "Nash product is CE" `Quick test_nash_is_correlated;
    Alcotest.test_case "non-equilibrium rejected" `Quick test_non_equilibrium_rejected;
    Alcotest.test_case "chicken: CE beats Nash hull" `Quick test_chicken_max_welfare_beats_nash;
    Alcotest.test_case "PD: only DD" `Quick test_max_welfare_pd_is_dd;
    Alcotest.test_case "player max vs welfare" `Quick test_max_player_bounds_welfare;
    Alcotest.test_case "zero-sum CE value" `Quick test_zero_sum_ce_value;
    QCheck_alcotest.to_alcotest ce_polytope_property;
  ]

let test_three_player_ce () =
  (* The 3-player coordination game: the checker and LP handle n > 2. *)
  let g = B.Games.coordination_01 3 in
  let all0 = B.Dist.return [| 0; 0; 0 |] in
  Alcotest.(check bool) "all-0 point mass is a CE" true (C.is_correlated_equilibrium g all0);
  match C.max_welfare g with
  | None -> Alcotest.fail "LP should succeed"
  | Some (d, w) ->
    Alcotest.(check bool) "is CE" true (C.is_correlated_equilibrium ~eps:1e-6 g d);
    (* The best CE lets a pair play 1 (welfare 4 > 3 of all-0). *)
    Alcotest.(check bool) "beats all-0 welfare" true (w >= 3.0 -. 1e-6)

let suite = suite @ [ Alcotest.test_case "3-player CE" `Quick test_three_player_ce ]
