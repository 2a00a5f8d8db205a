module B = Beyond_nash
module E = B.Extensive

let check_float = Alcotest.(check (float 1e-9))

(* Entry game: entrant enters or stays out; incumbent fights or accommodates. *)
let entry_game =
  E.create ~n_players:2
    (E.Decision
       {
         player = 0;
         info = "entrant";
         moves =
           [
             ("out", E.Terminal [| 0.0; 2.0 |]);
             ( "enter",
               E.Decision
                 {
                   player = 1;
                   info = "incumbent";
                   moves =
                     [ ("fight", E.Terminal [| -1.0; -1.0 |]); ("accommodate", E.Terminal [| 1.0; 1.0 |]) ];
                 } );
           ];
       })

(* A game with a chance move: nature deals high/low, player guesses. *)
let guessing_game =
  E.create ~n_players:1
    (E.Chance
       [
         ( "high",
           0.7,
           E.Decision
             {
               player = 0;
               info = "guess-after-high";
               moves = [ ("say-high", E.Terminal [| 1.0 |]); ("say-low", E.Terminal [| 0.0 |]) ];
             } );
         ( "low",
           0.3,
           E.Decision
             {
               player = 0;
               info = "guess-after-low";
               moves = [ ("say-high", E.Terminal [| 0.0 |]); ("say-low", E.Terminal [| 1.0 |]) ];
             } );
       ])

(* Matching pennies in extensive form with an information set: player 1
   moves, player 2 moves without observing (same info label). *)
let hidden_mp =
  let leaf a b = E.Terminal [| (if a = b then 1.0 else -1.0); (if a = b then -1.0 else 1.0) |] in
  E.create ~n_players:2
    (E.Decision
       {
         player = 0;
         info = "p1";
         moves =
           [
             ( "H",
               E.Decision
                 { player = 1; info = "p2"; moves = [ ("h", leaf 0 0); ("t", leaf 0 1) ] } );
             ( "T",
               E.Decision
                 { player = 1; info = "p2"; moves = [ ("h", leaf 1 0); ("t", leaf 1 1) ] } );
           ];
       })

let test_validation_payoff_arity () =
  Alcotest.check_raises "payoff arity" (Invalid_argument "Extensive.create: payoff arity")
    (fun () -> ignore (E.create ~n_players:2 (E.Terminal [| 1.0 |])))

let test_validation_chance_probs () =
  Alcotest.check_raises "chance probs"
    (Invalid_argument "Extensive.create: chance probabilities must sum to 1") (fun () ->
      ignore
        (E.create ~n_players:1
           (E.Chance [ ("a", 0.4, E.Terminal [| 0.0 |]); ("b", 0.4, E.Terminal [| 1.0 |]) ])))

let test_validation_inconsistent_info_set () =
  Alcotest.check_raises "info set moves"
    (Invalid_argument "Extensive.create: inconsistent moves within an information set")
    (fun () ->
      ignore
        (E.create ~n_players:1
           (E.Chance
              [
                ( "a",
                  0.5,
                  E.Decision { player = 0; info = "i"; moves = [ ("x", E.Terminal [| 0.0 |]) ] } );
                ( "b",
                  0.5,
                  E.Decision
                    {
                      player = 0;
                      info = "i";
                      moves = [ ("x", E.Terminal [| 0.0 |]); ("y", E.Terminal [| 1.0 |]) ];
                    } );
              ])))

let test_info_sets () =
  Alcotest.(check int) "entrant sets" 1 (List.length (E.info_sets entry_game ~player:0));
  Alcotest.(check int) "p2 one info set" 1 (List.length (E.info_sets hidden_mp ~player:1))

let test_histories () =
  Alcotest.(check int) "entry histories" 3 (List.length (E.histories entry_game));
  Alcotest.(check int) "guessing histories" 4 (List.length (E.histories guessing_game))

let test_pure_strategies () =
  Alcotest.(check int) "entrant strategies" 2 (List.length (E.pure_strategies entry_game ~player:0));
  Alcotest.(check int) "guesser strategies" 4 (List.length (E.pure_strategies guessing_game ~player:0))

let test_outcome_and_payoffs () =
  let strategies =
    [| E.behavioral_of_pure [ ("entrant", "enter") ]; E.behavioral_of_pure [ ("incumbent", "accommodate") ] |]
  in
  let u = E.expected_payoffs entry_game strategies in
  check_float "entrant" 1.0 u.(0);
  check_float "incumbent" 1.0 u.(1)

let test_outcome_with_chance () =
  let perfect =
    [| E.behavioral_of_pure [ ("guess-after-high", "say-high"); ("guess-after-low", "say-low") ] |]
  in
  check_float "perfect guessing" 1.0 (E.expected_payoffs guessing_game perfect).(0);
  let always_high =
    [| E.behavioral_of_pure [ ("guess-after-high", "say-high"); ("guess-after-low", "say-high") ] |]
  in
  check_float "always high" 0.7 (E.expected_payoffs guessing_game always_high).(0)

let test_behavioral_mixing () =
  let mixed = [| [ ("p1", [ ("H", 0.5); ("T", 0.5) ]) ]; [ ("p2", [ ("h", 0.5); ("t", 0.5) ]) ] |] in
  check_float "uniform MP value" 0.0 (E.expected_payoffs hidden_mp mixed).(0)

let test_backward_induction_entry () =
  let profile, value = E.backward_induction entry_game in
  check_float "entrant value" 1.0 value.(0);
  Alcotest.(check (list (pair string string))) "incumbent accommodates"
    [ ("incumbent", "accommodate") ] profile.(1);
  Alcotest.(check (list (pair string string))) "entrant enters" [ ("entrant", "enter") ]
    profile.(0)

let test_backward_induction_rejects_imperfect_info () =
  Alcotest.check_raises "imperfect information"
    (Invalid_argument "Extensive.backward_induction: imperfect information") (fun () ->
      ignore (E.backward_induction hidden_mp))

let test_backward_induction_with_chance () =
  let profile, value = E.backward_induction guessing_game in
  check_float "value" 1.0 value.(0);
  Alcotest.(check int) "strategy covers both sets" 2 (List.length profile.(0))

let test_to_normal_form () =
  let game, strategies = E.to_normal_form entry_game in
  Alcotest.(check int) "2x2 normal form" 2 (B.Normal_form.num_actions game 0);
  Alcotest.(check int) "strategy denotations" 2 (List.length strategies.(0));
  (* The entry game has 2 pure Nash equilibria: (enter, accommodate) and
     (out, fight) — the latter non-credible, eliminated by backward
     induction. *)
  Alcotest.(check int) "2 pure NE" 2 (List.length (B.Nash.pure_equilibria game))

let test_is_nash_consistency () =
  let spe = [| E.behavioral_of_pure [ ("entrant", "enter") ]; E.behavioral_of_pure [ ("incumbent", "accommodate") ] |] in
  Alcotest.(check bool) "SPE is Nash" true (E.is_nash entry_game spe);
  let bad = [| E.behavioral_of_pure [ ("entrant", "out") ]; E.behavioral_of_pure [ ("incumbent", "accommodate") ] |] in
  Alcotest.(check bool) "out/accommodate not Nash" false (E.is_nash entry_game bad)

let backward_induction_is_nash_property =
  QCheck.Test.make ~count:50 ~name:"extensive: backward induction yields a Nash equilibrium"
    QCheck.(array_of_size (Gen.return 6) (float_range (-5.0) 5.0))
    (fun payoffs ->
      (* Random perfect-information 2-level tree. *)
      let g =
        E.create ~n_players:2
          (E.Decision
             {
               player = 0;
               info = "root";
               moves =
                 [
                   ( "l",
                     E.Decision
                       {
                         player = 1;
                         info = "after-l";
                         moves =
                           [
                             ("a", E.Terminal [| payoffs.(0); payoffs.(1) |]);
                             ("b", E.Terminal [| payoffs.(2); payoffs.(3) |]);
                           ];
                       } );
                   ("r", E.Terminal [| payoffs.(4); payoffs.(5) |]);
                 ];
             })
      in
      let profile, _ = E.backward_induction g in
      E.is_nash g (Array.map E.behavioral_of_pure profile))

(* A random perfect-information game drawn from [seed]: 2–3 players, a
   decision at the root, every decision node its own information set
   (labelled by its path), binary moves, depth ≤ 3, and payoffs in
   {-2..2} so that ties are common. *)
let random_pi_game seed =
  let rng = B.Prng.create seed in
  let n = 2 + B.Prng.int rng 2 in
  let rec node depth path =
    if depth = 0 || (path <> "r" && B.Prng.int rng 3 = 0) then
      E.Terminal (Array.init n (fun _ -> float_of_int (B.Prng.int rng 5 - 2)))
    else
      let player = B.Prng.int rng n in
      let moves =
        List.init 2 (fun j ->
            (Printf.sprintf "m%d" j, node (depth - 1) (Printf.sprintf "%s.%d" path j)))
      in
      E.Decision { player; info = path; moves }
  in
  E.create ~n_players:n (node 3 "r")

(* Reduction law: on every pure profile, the extensive-form Nash check
   agrees with the Nash check of the induced normal form. *)
let is_nash_matches_normal_form_property =
  QCheck.Test.make ~count:40 ~name:"extensive: is_nash = normal-form Nash on random PI games"
    QCheck.small_nat
    (fun seed ->
      let g = random_pi_game seed in
      let nf, strategies = E.to_normal_form g in
      let strategies = Array.map Array.of_list strategies in
      let agree = ref true in
      B.Normal_form.iter_profiles nf (fun p ->
          let behavioral = Array.mapi (fun i a -> E.behavioral_of_pure strategies.(i).(a)) p in
          if E.is_nash g behavioral <> B.Nash.is_pure_nash nf p then agree := false);
      !agree)

let suite =
  [
    Alcotest.test_case "validation: payoff arity" `Quick test_validation_payoff_arity;
    Alcotest.test_case "validation: chance probs" `Quick test_validation_chance_probs;
    Alcotest.test_case "validation: info sets" `Quick test_validation_inconsistent_info_set;
    Alcotest.test_case "info sets" `Quick test_info_sets;
    Alcotest.test_case "histories" `Quick test_histories;
    Alcotest.test_case "pure strategies" `Quick test_pure_strategies;
    Alcotest.test_case "outcome and payoffs" `Quick test_outcome_and_payoffs;
    Alcotest.test_case "outcome with chance" `Quick test_outcome_with_chance;
    Alcotest.test_case "behavioral mixing" `Quick test_behavioral_mixing;
    Alcotest.test_case "backward induction: entry" `Quick test_backward_induction_entry;
    Alcotest.test_case "backward induction: rejects imperfect info" `Quick
      test_backward_induction_rejects_imperfect_info;
    Alcotest.test_case "backward induction: chance" `Quick test_backward_induction_with_chance;
    Alcotest.test_case "to normal form" `Quick test_to_normal_form;
    Alcotest.test_case "is_nash consistency" `Quick test_is_nash_consistency;
    QCheck_alcotest.to_alcotest backward_induction_is_nash_property;
    QCheck_alcotest.to_alcotest is_nash_matches_normal_form_property;
  ]

let test_to_dot () =
  let dot = E.to_dot ~title:"entry" entry_game in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph header" true (contains dot "digraph \"entry\"");
  Alcotest.(check bool) "has decision node" true (contains dot "P1/entrant");
  Alcotest.(check bool) "has terminal" true (contains dot "shape=box");
  Alcotest.(check bool) "has move label" true (contains dot "\"enter\"")

let test_to_dot_chance () =
  let dot = E.to_dot guessing_game in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "chance diamond" true (contains dot "shape=diamond");
  Alcotest.(check bool) "probability label" true (contains dot "(0.70)")

let suite =
  suite
  @ [
      Alcotest.test_case "to_dot: structure" `Quick test_to_dot;
      Alcotest.test_case "to_dot: chance" `Quick test_to_dot_chance;
    ]
