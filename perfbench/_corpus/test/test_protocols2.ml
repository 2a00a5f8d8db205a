(* Tests for the second wave of protocols: Phase King, FloodSet, the
   asynchronous scheduler, and commit-reveal coin flipping. *)

module B = Beyond_nash
module PK = B.Phase_king
module FS = B.Floodset
module A = B.Async_net
module CF = B.Coin_flip

(* {1 Phase King} *)

let test_pk_no_faults () =
  let r = PK.run ~n:5 ~t:1 ~values:[| 1; 0; 1; 1; 0 |] () in
  Alcotest.(check bool) "agreement" true (PK.agreement r);
  Alcotest.(check int) "2(t+1) rounds" 4 r.B.Sync_net.rounds_run

let test_pk_validity () =
  let r = PK.run ~n:5 ~t:1 ~values:[| 1; 1; 1; 1; 1 |] () in
  Alcotest.(check bool) "validity" true (PK.validity ~honest_values:[ 1; 1; 1; 1; 1 ] r)

let test_pk_lying_adversary () =
  (* n = 5 > 4t: the liar cannot break agreement or unanimity validity. *)
  let adv = PK.lying_adversary ~corrupted:[ 4 ] ~claim:0 in
  let r = PK.run ~adversary:adv ~n:5 ~t:1 ~values:[| 1; 1; 1; 1; 0 |] () in
  Alcotest.(check bool) "agreement" true (PK.agreement r);
  Alcotest.(check bool) "validity" true (PK.validity ~honest_values:[ 1; 1; 1; 1 ] r)

let test_pk_silent_adversary () =
  let r = PK.run ~adversary:(B.Sync_net.silent [ 2 ]) ~n:5 ~t:1 ~values:[| 0; 0; 1; 0; 0 |] () in
  Alcotest.(check bool) "agreement with crash" true (PK.agreement r);
  Alcotest.(check bool) "validity with crash" true (PK.validity ~honest_values:[ 0; 0; 0; 0 ] r)

let pk_agreement_property =
  QCheck.Test.make ~count:30 ~name:"phase king: agreement for random values, n=9, t=2"
    QCheck.(pair (int_range 0 511) bool)
    (fun (bits, claim) ->
      let values = Array.init 9 (fun i -> (bits lsr i) land 1) in
      let adv = PK.lying_adversary ~corrupted:[ 7; 8 ] ~claim:(if claim then 1 else 0) in
      let r = PK.run ~adversary:adv ~n:9 ~t:2 ~values () in
      PK.agreement r)

(* {1 FloodSet} *)

let test_fs_no_faults () =
  let r = FS.run ~n:4 ~f:1 ~values:[| 3; 1; 2; 2 |] () in
  Alcotest.(check bool) "agreement" true (FS.agreement r);
  Array.iter
    (function Some v -> Alcotest.(check int) "min rule" 1 v | None -> Alcotest.fail "decided")
    r.B.Sync_net.outputs

let test_fs_crash () =
  let rng = B.Prng.create 4 in
  let values = [| 1; 2; 3; 4; 5 |] in
  for round = 1 to 2 do
    let adv = FS.crash_after ~rng ~n:5 ~corrupted:[ 0 ] ~values ~round in
    let r = FS.run ~adversary:adv ~n:5 ~f:1 ~values () in
    Alcotest.(check bool) (Printf.sprintf "agreement, crash round %d" round) true (FS.agreement r);
    Alcotest.(check bool) "validity" true (FS.validity ~all_values:(Array.to_list values) r)
  done

let test_fs_multiple_crashes () =
  let rng = B.Prng.create 5 in
  let values = [| 9; 2; 7; 4; 5; 6 |] in
  let adv = FS.crash_after ~rng ~n:6 ~corrupted:[ 0; 2 ] ~values ~round:1 in
  let r = FS.run ~adversary:adv ~n:6 ~f:2 ~values () in
  Alcotest.(check bool) "agreement with f=2" true (FS.agreement r)

(* {1 Async_net} *)

(* Echo: process 0 sends its value to 1, 1 echoes back, both decide. *)
let echo =
  {
    A.init = (fun me -> if me = 0 then (None, [ (1, 42) ]) else (None, []));
    on_message =
      (fun ~me st ~sender:_ v ->
        ignore st;
        (Some v, if me = 1 then [ (0, v) ] else []));
    decided = Fun.id;
  }

let test_async_echo () =
  let r = A.run ~n:2 ~scheduler:A.fifo echo in
  Alcotest.(check (array (option int))) "both decided 42" [| Some 42; Some 42 |] r.A.decisions;
  Alcotest.(check int) "2 deliveries" 2 r.A.steps

let test_async_random_scheduler () =
  let rng = B.Prng.create 9 in
  let r = A.run ~n:2 ~scheduler:(A.random rng) echo in
  Alcotest.(check bool) "decided" true (Array.for_all (( <> ) None) r.A.decisions)

let test_async_delayer_budget_spent () =
  (* A ticker process generates traffic; the delayer starves process 0. *)
  let ticker =
    {
      A.init =
        (fun me -> if me = 0 then (None, [ (1, 0) ]) else if me = 2 then (None, [ (2, 1) ]) else (None, []));
      on_message =
        (fun ~me st ~sender:_ v ->
          if me = 2 then (Some 1, [ (2, 1) ]) else (ignore st; (Some v, [])));
      decided = Fun.id;
    }
  in
  let budget = ref 50 in
  let r = A.run ~max_steps:500 ~n:3 ~scheduler:(A.delayer ~victim:0 ~budget) ticker in
  Alcotest.(check bool) "victim's message eventually delivered" true (r.A.decisions.(1) = Some 0);
  Alcotest.(check bool) "budget consumed" true (!budget = 0);
  Alcotest.(check bool) "steps include starvation" true (r.A.steps > 50)

let test_async_max_steps_bound () =
  (* Pure ticker never decides at process 1: run stops at max_steps. *)
  let ticker =
    {
      A.init = (fun me -> if me = 0 then (Some 0, [ (0, 0) ]) else (None, []));
      on_message = (fun ~me:_ st ~sender:_ _ -> (st, [ (0, 0) ]));
      decided = Fun.id;
    }
  in
  let r = A.run ~max_steps:100 ~n:2 ~scheduler:A.fifo ticker in
  Alcotest.(check int) "stopped at bound" 100 r.A.steps

let test_async_validation () =
  Alcotest.check_raises "bad destination"
    (Invalid_argument "Async_net.run: destination out of range") (fun () ->
      let bad =
        {
          A.init = (fun _ -> (None, [ (7, 0) ]));
          on_message = (fun ~me:_ st ~sender:_ _ -> (st, []));
          decided = Fun.id;
        }
      in
      ignore (A.run ~n:2 ~scheduler:A.fifo bad))

(* {1 Coin flipping} *)

let test_coin_honest_fair () =
  let rng = B.Prng.create 11 in
  let zeros = ref 0 in
  let trials = 5000 in
  for _ = 1 to trials do
    match CF.honest rng with
    | { CF.coin = Some 0; _ } -> incr zeros
    | { CF.coin = Some _; _ } -> ()
    | { CF.coin = None; _ } -> Alcotest.fail "honest run must complete"
  done;
  let freq = float_of_int !zeros /. float_of_int trials in
  Alcotest.(check bool) "fair" true (Float.abs (freq -. 0.5) < 0.03)

let test_coin_aborter_bias () =
  let rng = B.Prng.create 12 in
  let rate, bias = CF.completion_bias rng ~trials:2000 ~prefer:1 in
  Alcotest.(check bool) "completes about half the time" true (Float.abs (rate -. 0.5) < 0.05);
  Alcotest.(check (float 1e-9)) "conditioned on completion, fully biased" 1.0 bias

let test_coin_cheater_caught () =
  let rng = B.Prng.create 13 in
  for _ = 1 to 50 do
    let t = CF.cheater_caught rng in
    Alcotest.(check bool) "commitment check fails" false t.CF.commitments_checked
  done

let suite =
  [
    Alcotest.test_case "phase king: no faults" `Quick test_pk_no_faults;
    Alcotest.test_case "phase king: validity" `Quick test_pk_validity;
    Alcotest.test_case "phase king: liar" `Quick test_pk_lying_adversary;
    Alcotest.test_case "phase king: crash" `Quick test_pk_silent_adversary;
    QCheck_alcotest.to_alcotest pk_agreement_property;
    Alcotest.test_case "floodset: no faults" `Quick test_fs_no_faults;
    Alcotest.test_case "floodset: crash rounds" `Quick test_fs_crash;
    Alcotest.test_case "floodset: two crashes" `Quick test_fs_multiple_crashes;
    Alcotest.test_case "async: echo" `Quick test_async_echo;
    Alcotest.test_case "async: random scheduler" `Quick test_async_random_scheduler;
    Alcotest.test_case "async: delayer budget" `Quick test_async_delayer_budget_spent;
    Alcotest.test_case "async: max steps" `Quick test_async_max_steps_bound;
    Alcotest.test_case "async: validation" `Quick test_async_validation;
    Alcotest.test_case "coin: honest fair" `Slow test_coin_honest_fair;
    Alcotest.test_case "coin: aborter bias" `Quick test_coin_aborter_bias;
    Alcotest.test_case "coin: cheater caught" `Quick test_coin_cheater_caught;
  ]
