module B = Beyond_nash
module A = B.Automaton
module R = B.Repeated
module F = B.Frpd
module T = B.Tournament

let check_float = Alcotest.(check (float 1e-9))

(* {1 Automata} *)

let test_zoo_validates () =
  List.iter A.validate
    [ A.all_c; A.all_d; A.tit_for_tat; A.grim; A.pavlov; A.alternator;
      A.tft_defect_last ~horizon:5; A.defect_from ~round:3 ~horizon:5 ]

let test_sizes () =
  Alcotest.(check int) "AllC 1 state" 1 (A.size A.all_c);
  Alcotest.(check int) "TfT 2 states" 2 (A.size A.tit_for_tat);
  Alcotest.(check int) "counting machine 2N states" 10 (A.size (A.tft_defect_last ~horizon:5))

let test_validate_rejects () =
  Alcotest.check_raises "bad transition" (Invalid_argument "Automaton: bad transition")
    (fun () ->
      A.validate { A.name = "bad"; start = 0; output = [| 0 |]; next = [| [| 0; 5 |] |] })

(* {1 Repeated play} *)

let test_tft_vs_alld_pattern () =
  let play = R.play R.pd_classic ~rounds:4 A.tit_for_tat A.all_d in
  (* TfT: C then D forever; AllD: D always. *)
  Alcotest.(check (list (pair int int))) "trace" [ (0, 1); (1, 1); (1, 1); (1, 1) ]
    play.R.actions

let test_tft_self_play_cooperates () =
  let play = R.play R.pd_classic ~rounds:10 A.tit_for_tat A.tit_for_tat in
  check_float "full cooperation" 1.0 (R.cooperation_rate play)

let test_grim_punishes_forever () =
  let play = R.play R.pd_classic ~rounds:5 A.grim A.alternator in
  (* Alternator: C D C D C; Grim cooperates until first D (round 2), then
     defects from round 3 on. *)
  Alcotest.(check (list (pair int int))) "grim trace"
    [ (0, 0); (0, 1); (1, 0); (1, 1); (1, 0) ] play.R.actions

let test_pavlov_recovers () =
  (* Pavlov vs Pavlov after a bad start... both start C; always C. *)
  let play = R.play R.pd_classic ~rounds:6 A.pavlov A.pavlov in
  check_float "pavlov cooperates" 1.0 (R.cooperation_rate play)

let test_discounting () =
  (* AllC vs AllC with delta = 0.5: sum over 3 rounds of 3 * 0.5^m =
     3*(0.5 + 0.25 + 0.125) = 2.625. *)
  let p1, p2 = R.discounted_payoffs ~delta:0.5 R.pd_classic ~rounds:3 A.all_c A.all_c in
  check_float "discounted p1" 2.625 p1;
  check_float "discounted p2" 2.625 p2

let test_paper_payoffs () =
  let p1, p2 = R.discounted_payoffs R.pd_paper ~rounds:1 A.all_d A.all_c in
  check_float "defector gets 5" 5.0 p1;
  check_float "cooperator gets -5" (-5.0) p2

let test_counting_machine_defects_last () =
  let m = A.tft_defect_last ~horizon:4 in
  let play = R.play R.pd_classic ~rounds:4 m A.tit_for_tat in
  Alcotest.(check (list (pair int int))) "defects exactly at last round"
    [ (0, 0); (0, 0); (0, 0); (1, 0) ] play.R.actions

(* {1 FRPD (Example 3.2)} *)

let spec mu = { F.stage = R.pd_paper; horizon = 10; delta = 0.9; memory_cost = mu }

let test_tft_not_equilibrium_without_cost () =
  Alcotest.(check bool) "mu=0: not equilibrium" false
    (F.is_equilibrium ~space:(F.paper_space ~horizon:10) (spec 0.0) A.tit_for_tat)

let test_tft_equilibrium_with_cost () =
  Alcotest.(check bool) "mu=0.05: equilibrium" true
    (F.is_equilibrium ~space:(F.paper_space ~horizon:10) (spec 0.05) A.tit_for_tat)

let test_threshold_formula_matches () =
  (* The closed-form threshold: equilibrium iff mu >= threshold (against
     the counting deviation; other deviations are worse). *)
  let s = spec 0.0 in
  let threshold = F.tft_threshold_cost s in
  let below = { s with F.memory_cost = threshold *. 0.9 } in
  let above = { s with F.memory_cost = threshold *. 1.1 } in
  Alcotest.(check bool) "below threshold fails" false
    (F.is_equilibrium ~space:(F.paper_space ~horizon:10) below A.tit_for_tat);
  Alcotest.(check bool) "above threshold holds" true
    (F.is_equilibrium ~space:(F.paper_space ~horizon:10) above A.tit_for_tat)

let test_any_positive_cost_works_eventually () =
  (* The paper: for ANY positive memory cost, long enough games make TfT an
     equilibrium (gain 2δ^N vanishes). *)
  List.iter
    (fun mu ->
      match F.min_horizon_for_equilibrium ~memory_cost:mu ~delta:0.9 () with
      | Some n -> Alcotest.(check bool) (Printf.sprintf "mu=%f has a horizon" mu) true (n <= 60)
      | None -> Alcotest.failf "mu=%f: no horizon found" mu)
    [ 0.001; 0.01; 0.1 ]

let test_best_response_is_counting_machine_when_free () =
  let br, _ = F.best_response ~space:(F.paper_space ~horizon:10) (spec 0.0) A.tit_for_tat in
  Alcotest.(check string) "counting machine" "TfT-last-defect(10)" br.A.name

let test_allc_undercuts_in_full_space () =
  (* The documented artifact: in the full space, AllC (1 state) beats TfT
     against TfT under per-state charges. *)
  let br, _ = F.best_response (spec 0.05) A.tit_for_tat in
  Alcotest.(check string) "AllC undercuts" "AllC" br.A.name

let test_machine_game_symmetric () =
  let game, _ = F.to_game (spec 0.05) in
  Alcotest.(check bool) "symmetric" true (B.Normal_form.is_symmetric_2p game)

(* {1 Tournament} *)

let test_round_robin_deterministic () =
  let e1 = T.round_robin ~stage:R.pd_classic ~rounds:50 T.default_field in
  let e2 = T.round_robin ~stage:R.pd_classic ~rounds:50 T.default_field in
  Alcotest.(check (list string)) "same ranking"
    (List.map (fun e -> e.T.automaton.A.name) e1)
    (List.map (fun e -> e.T.automaton.A.name) e2)

let test_tft_among_top () =
  let entries = T.round_robin ~stage:R.pd_classic ~rounds:200 T.default_field in
  let names = List.map (fun e -> e.T.automaton.A.name) entries in
  let index_of name =
    let rec go i = function
      | [] -> Alcotest.failf "%s missing" name
      | n :: _ when n = name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 names
  in
  (* The reciprocating strategies finish above AllD and Alternator. *)
  Alcotest.(check bool) "TfT in top half" true (index_of "TfT" < 3);
  Alcotest.(check bool) "TfT beats AllD" true (index_of "TfT" < index_of "AllD");
  Alcotest.(check bool) "Grim beats AllD" true (index_of "Grim" < index_of "AllD")

let test_winner () =
  let entries = T.round_robin ~stage:R.pd_classic ~rounds:100 T.default_field in
  Alcotest.(check bool) "winner is head" true
    ((T.winner entries).A.name = (List.hd entries).T.automaton.A.name)

let test_cooperation_rates_sane () =
  let entries = T.round_robin ~stage:R.pd_classic ~rounds:100 T.default_field in
  List.iter
    (fun e ->
      Alcotest.(check bool) "rate in [0,1]" true
        (e.T.cooperation >= 0.0 && e.T.cooperation <= 1.0))
    entries

let discounted_le_undiscounted_property =
  QCheck.Test.make ~count:50 ~name:"repeated: |discounted| <= |undiscounted| for delta <= 1"
    QCheck.(pair (float_range 0.1 1.0) (int_range 1 20))
    (fun (delta, rounds) ->
      let d1, _ = R.discounted_payoffs ~delta R.pd_classic ~rounds A.tit_for_tat A.pavlov in
      let u1, _ = R.discounted_payoffs R.pd_classic ~rounds A.tit_for_tat A.pavlov in
      Float.abs d1 <= Float.abs u1 +. 1e-9)

let suite =
  [
    Alcotest.test_case "automata: zoo validates" `Quick test_zoo_validates;
    Alcotest.test_case "automata: sizes" `Quick test_sizes;
    Alcotest.test_case "automata: validation" `Quick test_validate_rejects;
    Alcotest.test_case "play: TfT vs AllD" `Quick test_tft_vs_alld_pattern;
    Alcotest.test_case "play: TfT self-play" `Quick test_tft_self_play_cooperates;
    Alcotest.test_case "play: Grim punishes" `Quick test_grim_punishes_forever;
    Alcotest.test_case "play: Pavlov" `Quick test_pavlov_recovers;
    Alcotest.test_case "play: discounting" `Quick test_discounting;
    Alcotest.test_case "play: paper payoffs" `Quick test_paper_payoffs;
    Alcotest.test_case "play: counting machine" `Quick test_counting_machine_defects_last;
    Alcotest.test_case "frpd: mu=0 not equilibrium" `Quick test_tft_not_equilibrium_without_cost;
    Alcotest.test_case "frpd: mu>threshold equilibrium" `Quick test_tft_equilibrium_with_cost;
    Alcotest.test_case "frpd: threshold formula" `Quick test_threshold_formula_matches;
    Alcotest.test_case "frpd: any positive cost works" `Slow test_any_positive_cost_works_eventually;
    Alcotest.test_case "frpd: counting machine is BR" `Quick
      test_best_response_is_counting_machine_when_free;
    Alcotest.test_case "frpd: AllC artifact" `Quick test_allc_undercuts_in_full_space;
    Alcotest.test_case "frpd: symmetric game" `Quick test_machine_game_symmetric;
    Alcotest.test_case "tournament: deterministic" `Quick test_round_robin_deterministic;
    Alcotest.test_case "tournament: TfT top half" `Quick test_tft_among_top;
    Alcotest.test_case "tournament: winner" `Quick test_winner;
    Alcotest.test_case "tournament: cooperation rates" `Quick test_cooperation_rates_sane;
    QCheck_alcotest.to_alcotest discounted_le_undiscounted_property;
  ]

(* {1 Noise} *)

let test_noisy_play_zero_noise_equals_play () =
  let rng = B.Prng.create 1 in
  let noisy = R.noisy_play rng ~noise:0.0 R.pd_classic ~rounds:20 A.tit_for_tat A.grim in
  let clean = R.play R.pd_classic ~rounds:20 A.tit_for_tat A.grim in
  Alcotest.(check bool) "identical traces" true (noisy.R.actions = clean.R.actions)

let test_noisy_play_full_noise_inverts () =
  (* noise = 1 flips every action: AllC vs AllC becomes mutual defection. *)
  let rng = B.Prng.create 2 in
  let play = R.noisy_play rng ~noise:1.0 R.pd_classic ~rounds:10 A.all_c A.all_c in
  Alcotest.(check (float 1e-9)) "no cooperation" 0.0 (R.cooperation_rate play)

let test_noisy_play_validation () =
  let rng = B.Prng.create 3 in
  Alcotest.check_raises "noise range" (Invalid_argument "Repeated.noisy_play: noise in [0,1]")
    (fun () -> ignore (R.noisy_play rng ~noise:1.5 R.pd_classic ~rounds:5 A.all_c A.all_c))

let test_noise_breaks_tft_self_play () =
  (* A single tremble sends TfT vs TfT into an echo feud: cooperation rate
     drops well below 1. *)
  let rng = B.Prng.create 4 in
  let play = R.noisy_play rng ~noise:0.05 R.pd_classic ~rounds:400 A.tit_for_tat A.tit_for_tat in
  let rate = R.cooperation_rate play in
  Alcotest.(check bool) "echo feuds" true (rate < 0.9);
  (* Pavlov recovers from trembles: strictly more cooperative than TfT here. *)
  let rng2 = B.Prng.create 4 in
  let pav = R.noisy_play rng2 ~noise:0.05 R.pd_classic ~rounds:400 A.pavlov A.pavlov in
  Alcotest.(check bool) "pavlov recovers" true (R.cooperation_rate pav > rate)

let test_noisy_tournament_runs () =
  let rng = B.Prng.create 5 in
  let entries =
    T.round_robin ~noise:(rng, 0.02) ~stage:R.pd_classic ~rounds:100 T.default_field
  in
  Alcotest.(check int) "full field" 6 (List.length entries)

let suite =
  suite
  @ [
      Alcotest.test_case "noise: zero = clean" `Quick test_noisy_play_zero_noise_equals_play;
      Alcotest.test_case "noise: full inverts" `Quick test_noisy_play_full_noise_inverts;
      Alcotest.test_case "noise: validation" `Quick test_noisy_play_validation;
      Alcotest.test_case "noise: TfT echo feuds" `Quick test_noise_breaks_tft_self_play;
      Alcotest.test_case "noise: tournament" `Quick test_noisy_tournament_runs;
    ]
