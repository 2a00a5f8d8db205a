module S = Beyond_nash.Simplex

let check_float = Alcotest.(check (float 1e-6))

let solve_or_fail problem =
  match S.solve problem with
  | S.Optimal { solution; value } -> (solution, value)
  | S.Infeasible -> Alcotest.fail "unexpected infeasible"
  | S.Unbounded -> Alcotest.fail "unexpected unbounded"

let test_basic_le () =
  (* max 3x + 2y st x + y <= 4, x <= 2 -> x=2, y=2, value 10 *)
  let x, v = solve_or_fail { S.objective = [| 3.0; 2.0 |]; constraints = [ S.le [| 1.0; 1.0 |] 4.0; S.le [| 1.0; 0.0 |] 2.0 ] } in
  check_float "value" 10.0 v;
  check_float "x" 2.0 x.(0);
  check_float "y" 2.0 x.(1)

let test_with_ge () =
  (* max x st x <= 5, x >= 2 *)
  let _, v = solve_or_fail { S.objective = [| 1.0 |]; constraints = [ S.le [| 1.0 |] 5.0; S.ge [| 1.0 |] 2.0 ] } in
  check_float "value" 5.0 v

let test_minimize_via_negation () =
  (* min x st x >= 3  ==  max -x *)
  let x, v = solve_or_fail { S.objective = [| -1.0 |]; constraints = [ S.ge [| 1.0 |] 3.0 ] } in
  check_float "value" (-3.0) v;
  check_float "x" 3.0 x.(0)

let test_equality () =
  (* max x + y st x + y = 3, x <= 1 -> value 3 with x <= 1 *)
  let x, v = solve_or_fail { S.objective = [| 1.0; 1.0 |]; constraints = [ S.eq [| 1.0; 1.0 |] 3.0; S.le [| 1.0; 0.0 |] 1.0 ] } in
  check_float "value" 3.0 v;
  Alcotest.(check bool) "x within bound" true (x.(0) <= 1.0 +. 1e-9)

let test_infeasible () =
  match S.solve { S.objective = [| 1.0 |]; constraints = [ S.le [| 1.0 |] 1.0; S.ge [| 1.0 |] 2.0 ] } with
  | S.Infeasible -> ()
  | S.Optimal _ | S.Unbounded -> Alcotest.fail "should be infeasible"

let test_unbounded () =
  match S.solve { S.objective = [| 1.0 |]; constraints = [ S.ge [| 1.0 |] 0.0 ] } with
  | S.Unbounded -> ()
  | S.Optimal _ | S.Infeasible -> Alcotest.fail "should be unbounded"

let test_negative_rhs_normalization () =
  (* x >= -1 written as -x <= 1; max -x st -x <= 1 -> 1 at x... careful:
     variables are nonneg, so max -x is 0 at x = 0. *)
  let _, v = solve_or_fail { S.objective = [| -1.0 |]; constraints = [ S.le [| -1.0 |] 1.0 ] } in
  check_float "value" 0.0 v

let test_degenerate_no_cycle () =
  (* Classic degenerate LP; Bland's rule must terminate. *)
  let problem =
    {
      S.objective = [| 10.0; -57.0; -9.0; -24.0 |];
      constraints =
        [
          S.le [| 0.5; -5.5; -2.5; 9.0 |] 0.0;
          S.le [| 0.5; -1.5; -0.5; 1.0 |] 0.0;
          S.le [| 1.0; 0.0; 0.0; 0.0 |] 1.0;
        ];
    }
  in
  let _, v = solve_or_fail problem in
  check_float "beale value" 1.0 v

let test_zero_objective () =
  let _, v = solve_or_fail { S.objective = [| 0.0; 0.0 |]; constraints = [ S.le [| 1.0; 1.0 |] 1.0 ] } in
  check_float "value" 0.0 v

let feasibility_property =
  QCheck.Test.make ~count:200 ~name:"simplex: optimal solutions are feasible"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 4)
           (pair (array_of_size (Gen.return 2) (float_range (-5.0) 5.0)) (float_range 0.0 10.0)))
        (array_of_size (Gen.return 2) (float_range (-3.0) 3.0)))
    (fun (rows, objective) ->
      let constraints = List.map (fun (c, b) -> S.le c b) rows in
      match S.solve { S.objective; constraints } with
      | S.Infeasible -> false (* all-le with b >= 0 is feasible at 0 *)
      | S.Unbounded -> true
      | S.Optimal { solution; _ } ->
        Array.for_all (fun x -> x >= -1e-7) solution
        && List.for_all
             (fun (c, b) ->
               let lhs = ref 0.0 in
               Array.iteri (fun i ci -> lhs := !lhs +. (ci *. solution.(i))) c;
               !lhs <= b +. 1e-6)
             rows)

let optimality_property =
  QCheck.Test.make ~count:200 ~name:"simplex: value >= any sampled feasible point"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 3)
           (pair (array_of_size (Gen.return 2) (float_range 0.1 5.0)) (float_range 1.0 10.0)))
        (array_of_size (Gen.return 2) (float_range 0.0 3.0)))
    (fun (rows, objective) ->
      let constraints = List.map (fun (c, b) -> S.le c b) rows in
      match S.solve { S.objective; constraints } with
      | S.Infeasible | S.Unbounded -> false (* positive coeffs: bounded, feasible *)
      | S.Optimal { value; _ } ->
        (* Candidate feasible points on a grid must not beat the optimum. *)
        let ok = ref true in
        for i = 0 to 10 do
          for j = 0 to 10 do
            let x = float_of_int i /. 2.0 and y = float_of_int j /. 2.0 in
            let feasible =
              List.for_all (fun (c, b) -> (c.(0) *. x) +. (c.(1) *. y) <= b) rows
            in
            if feasible && (objective.(0) *. x) +. (objective.(1) *. y) > value +. 1e-6 then
              ok := false
          done
        done;
        !ok)

(* {1 Revised vs dense agreement}

   [solve] is the revised (sparse-column, basis-inverse) method and
   [solve_dense] the original tableau; they follow the same pivoting rules,
   so outcomes must match and optimal values agree to 1e-6. *)

let agreeing problem =
  match (S.solve problem, S.solve_dense problem) with
  | S.Optimal { value = va; _ }, S.Optimal { value = vb; _ } -> Float.abs (va -. vb) <= 1e-6
  | S.Infeasible, S.Infeasible | S.Unbounded, S.Unbounded -> true
  | _ -> false

let revised_dense_agreement_random_lps =
  QCheck.Test.make ~count:200 ~name:"simplex: revised = dense on random mixed-relation LPs"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 5)
           (triple
              (array_of_size (Gen.return 3) (float_range (-5.0) 5.0))
              (int_range 0 2) (float_range (-6.0) 6.0)))
        (array_of_size (Gen.return 3) (float_range (-3.0) 3.0)))
    (fun (rows, objective) ->
      let constraints =
        List.map
          (fun (c, rel, b) -> match rel with 0 -> S.le c b | 1 -> S.ge c b | _ -> S.eq c b)
          rows
      in
      agreeing { S.objective; constraints })

let revised_dense_agreement_zero_sum =
  (* The value LP of a random 3×3 zero-sum game (v free as v⁺ − v⁻):
     always feasible and bounded, and heavy on Ge/Eq rows, so both phases
     get exercised on every draw. *)
  QCheck.Test.make ~count:100 ~name:"simplex: revised = dense on random zero-sum value LPs"
    QCheck.(array_of_size (Gen.return 9) (float_range (-5.0) 5.0))
    (fun a ->
      let entry k j = a.((3 * k) + j) in
      let constraints =
        List.init 3 (fun j -> S.ge [| entry 0 j; entry 1 j; entry 2 j; -1.0; 1.0 |] 0.0)
        @ [ S.eq [| 1.0; 1.0; 1.0; 0.0; 0.0 |] 1.0 ]
      in
      let problem = { S.objective = [| 0.0; 0.0; 0.0; 1.0; -1.0 |]; constraints } in
      (match S.solve problem with S.Optimal _ -> true | _ -> false)
      && agreeing problem)

let test_dense_oracle_still_solves () =
  match S.solve_dense { S.objective = [| 3.0; 2.0 |]; constraints = [ S.le [| 1.0; 1.0 |] 4.0; S.le [| 1.0; 0.0 |] 2.0 ] } with
  | S.Optimal { value; _ } -> check_float "dense value" 10.0 value
  | S.Infeasible | S.Unbounded -> Alcotest.fail "dense oracle failed"

let suite =
  [
    Alcotest.test_case "basic <=" `Quick test_basic_le;
    Alcotest.test_case "with >=" `Quick test_with_ge;
    Alcotest.test_case "minimize" `Quick test_minimize_via_negation;
    Alcotest.test_case "equality" `Quick test_equality;
    Alcotest.test_case "infeasible" `Quick test_infeasible;
    Alcotest.test_case "unbounded" `Quick test_unbounded;
    Alcotest.test_case "negative rhs" `Quick test_negative_rhs_normalization;
    Alcotest.test_case "degenerate (Beale)" `Quick test_degenerate_no_cycle;
    Alcotest.test_case "zero objective" `Quick test_zero_objective;
    Alcotest.test_case "dense oracle" `Quick test_dense_oracle_still_solves;
    QCheck_alcotest.to_alcotest feasibility_property;
    QCheck_alcotest.to_alcotest optimality_property;
    QCheck_alcotest.to_alcotest revised_dense_agreement_random_lps;
    QCheck_alcotest.to_alcotest revised_dense_agreement_zero_sum;
  ]
