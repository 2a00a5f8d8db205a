module B = Beyond_nash
module A = B.Awareness
module Ex = B.Aware_examples
module E = B.Extensive

let check_float = Alcotest.(check (float 1e-9))

(* Helpers: pure move of a profile entry. *)
let move_of profile pair info =
  match List.assoc_opt pair profile with
  | None -> Alcotest.failf "missing pair"
  | Some beh -> (
    match List.assoc_opt info beh with
    | Some dist -> fst (List.hd (List.sort (fun (_, a) (_, b) -> compare b a) dist))
    | None -> Alcotest.failf "missing info set %s" info)

let test_create_validates_dangling_game () =
  Alcotest.check_raises "dangling F target"
    (Invalid_argument "Awareness: unknown game nope") (fun () ->
      let g =
        E.create ~n_players:1
          (E.Decision { player = 0; info = "i"; moves = [ ("m", E.Terminal [| 0.0 |]) ] })
      in
      ignore (A.create ~games:[ ("only", g) ] ~modeler:"only" ~f:(fun ~game:_ ~info -> ("nope", info))))

let test_create_validates_modeler () =
  let g =
    E.create ~n_players:1
      (E.Decision { player = 0; info = "i"; moves = [ ("m", E.Terminal [| 0.0 |]) ] })
  in
  Alcotest.check_raises "modeler missing"
    (Invalid_argument "Awareness.create: modeler game not in collection") (fun () ->
      ignore (A.create ~games:[ ("g", g) ] ~modeler:"absent" ~f:(fun ~game ~info -> (game, info))))

let test_required_pairs () =
  let t = Ex.with_awareness ~p:0.3 in
  let pairs = A.required_pairs t in
  Alcotest.(check int) "four pairs" 4 (List.length pairs);
  List.iter
    (fun pair -> Alcotest.(check bool) "expected pair" true (List.mem pair pairs))
    [ (0, "gameA"); (1, "modeler"); (0, "gameB"); (1, "gameB") ]

(* {1 The paper's example (Figures 1-3)} *)

let test_low_p_has_across_equilibrium () =
  let eqs = Ex.generalized_equilibria ~p:0.25 in
  Alcotest.(check bool) "some GNE has A playing across_A" true
    (List.exists (fun prof -> move_of prof (0, "gameA") "A.1" = "across_A") eqs);
  (* And in such an equilibrium B (aware) plays down_B. *)
  List.iter
    (fun prof ->
      if move_of prof (0, "gameA") "A.1" = "across_A" then
        Alcotest.(check string) "B plays down" "down_B" (move_of prof (1, "modeler") "B"))
    eqs

let test_high_p_forces_down () =
  let eqs = Ex.generalized_equilibria ~p:0.75 in
  Alcotest.(check bool) "nonempty" true (eqs <> []);
  List.iter
    (fun prof ->
      Alcotest.(check string) "A plays down at high p" "down_A"
        (move_of prof (0, "gameA") "A.1"))
    eqs

let test_unaware_b_always_across () =
  List.iter
    (fun p ->
      List.iter
        (fun prof ->
          Alcotest.(check string) "unaware B has only across" "across_B"
            (move_of prof (1, "gameB") "B.3"))
        (Ex.generalized_equilibria ~p))
    [ 0.1; 0.9 ]

let test_a_in_gameb_plays_down () =
  (* If A believed the game had no down_B, she plays down_A. *)
  List.iter
    (fun prof ->
      Alcotest.(check string) "A-down in gameB" "down_A" (move_of prof (0, "gameB") "A.3"))
    (Ex.generalized_equilibria ~p:0.5)

let test_modeler_outcome_shapes () =
  (* Low p: the best GNE reaches (2,2); high p: all GNE give (1,1). *)
  let low = Ex.generalized_equilibria ~p:0.1 in
  Alcotest.(check bool) "low p can reach (2,2)" true
    (List.exists (fun prof -> (Ex.modeler_outcome ~p:0.1 prof).(0) = 2.0) low);
  let high = Ex.generalized_equilibria ~p:0.9 in
  List.iter
    (fun prof -> check_float "high p gives 1" 1.0 (Ex.modeler_outcome ~p:0.9 prof).(0))
    high

let test_underlying_nash_for_contrast () =
  let nes = Ex.underlying_nash_profiles () in
  Alcotest.(check bool) "(across, down) is a Nash equilibrium" true
    (List.mem ("across_A", "down_B") nes)

let test_expected_payoffs_in_subjective_game () =
  (* In gameA with p = 0.5 and the across-equilibrium, A's expected payoff
     is (1-p)*2 + p*0 = 1 — exactly indifferent with down_A's 1. *)
  let t = Ex.with_awareness ~p:0.5 in
  let eqs = Ex.generalized_equilibria ~p:0.5 in
  Alcotest.(check bool) "nonempty at the knife edge" true (eqs <> []);
  List.iter
    (fun prof ->
      let u = A.expected_payoffs t ~game:"gameA" prof in
      Alcotest.(check bool) "A's subjective payoff >= 1" true (u.(0) >= 1.0 -. 1e-9))
    eqs

(* {1 Canonical representation theorem} *)

let canonical_equivalence_on game =
  let c = A.canonical game in
  let nf, strategies = E.to_normal_form game in
  B.Normal_form.iter_profiles nf (fun p ->
      let behavioral =
        Array.init (E.n_players game) (fun i ->
            E.behavioral_of_pure (List.nth strategies.(i) p.(i)))
      in
      let is_ne = B.Nash.is_pure_nash nf p in
      let is_gne = A.is_generalized_nash c (A.embed_canonical game behavioral) in
      Alcotest.(check bool) "NE iff GNE of canonical representation" is_ne is_gne)

let test_canonical_theorem_fig1 () = canonical_equivalence_on Ex.underlying

let test_canonical_theorem_entry_game () =
  let entry =
    E.create ~n_players:2
      (E.Decision
         {
           player = 0;
           info = "e";
           moves =
             [
               ("out", E.Terminal [| 0.0; 2.0 |]);
               ( "enter",
                 E.Decision
                   {
                     player = 1;
                     info = "i";
                     moves = [ ("f", E.Terminal [| -1.0; -1.0 |]); ("a", E.Terminal [| 1.0; 1.0 |]) ];
                   } );
             ];
         })
  in
  canonical_equivalence_on entry;
  (* Random perfect-information trees as further inputs. *)
  List.iter
    (fun seed -> canonical_equivalence_on (Test_extensive.random_pi_game seed))
    (List.init 15 Fun.id)

(* {1 Awareness of unawareness (virtual moves)} *)

let test_virtual_move_peace () =
  let g = Ex.virtual_move_game ~estimate:(-2.0) in
  let eqs = A.pure_generalized_equilibria g in
  Alcotest.(check bool) "equilibria exist" true (eqs <> []);
  List.iter
    (fun prof ->
      Alcotest.(check string) "low estimate: peace" "peace" (move_of prof (0, "gameA") "A.war"))
    eqs

let test_virtual_move_attack () =
  let g = Ex.virtual_move_game ~estimate:2.0 in
  List.iter
    (fun prof ->
      Alcotest.(check string) "high estimate: attack" "attack" (move_of prof (0, "gameA") "A.war"))
    (A.pure_generalized_equilibria g)

let test_virtual_utilities () =
  let attack, peace = Ex.virtual_attack_utility ~estimate:(-2.0) in
  Alcotest.(check bool) "peace preferred" true (peace > attack)

let existence_property =
  QCheck.Test.make ~count:20 ~name:"awareness: the example always has a pure GNE"
    QCheck.(float_range 0.0 1.0)
    (fun p -> Ex.generalized_equilibria ~p <> [])

let suite =
  [
    Alcotest.test_case "create: dangling F" `Quick test_create_validates_dangling_game;
    Alcotest.test_case "create: modeler check" `Quick test_create_validates_modeler;
    Alcotest.test_case "required pairs" `Quick test_required_pairs;
    Alcotest.test_case "fig1: low p across" `Quick test_low_p_has_across_equilibrium;
    Alcotest.test_case "fig1: high p down" `Quick test_high_p_forces_down;
    Alcotest.test_case "fig1: unaware B" `Quick test_unaware_b_always_across;
    Alcotest.test_case "fig1: A in gameB" `Quick test_a_in_gameb_plays_down;
    Alcotest.test_case "fig1: modeler outcomes" `Quick test_modeler_outcome_shapes;
    Alcotest.test_case "fig1: underlying Nash" `Quick test_underlying_nash_for_contrast;
    Alcotest.test_case "fig1: subjective payoffs" `Quick test_expected_payoffs_in_subjective_game;
    Alcotest.test_case "canonical theorem: fig1" `Quick test_canonical_theorem_fig1;
    Alcotest.test_case "canonical theorem: entry game" `Quick test_canonical_theorem_entry_game;
    Alcotest.test_case "virtual move: peace" `Quick test_virtual_move_peace;
    Alcotest.test_case "virtual move: attack" `Quick test_virtual_move_attack;
    Alcotest.test_case "virtual move: utilities" `Quick test_virtual_utilities;
    QCheck_alcotest.to_alcotest existence_property;
  ]
