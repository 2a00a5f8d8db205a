(* Fault-injection layer: event semantics in Sync_net, composition with
   adversaries, schedule exploration + shrinking, and the determinism
   contract (identical verdicts at any -j and across same-seed runs). *)

module B = Beyond_nash
module N = B.Sync_net
module F = B.Faults
module X = B.Explore
module FS = Bn_experiments.Fault_sweep

(* Flooding protocol over int ids: state = sorted list of (sender, value)
   receipts tagged with the round they arrived in. *)
let recorder ~n:_ =
  {
    N.init = (fun _ -> []);
    send = (fun ~round ~me _ -> if round = 1 then [ (N.All, me) ] else []);
    recv =
      (fun ~round ~me:_ st inbox ->
        st @ List.map (fun (sender, v) -> (round, sender, v)) inbox);
    output = (fun ~me:_ st -> Some st);
  }

let receipts r me = Option.get r.N.outputs.(me)

(* {1 Event semantics} *)

let test_drop () =
  let faults = F.plan [ F.Drop { round = 1; src = 0; dst = 1 } ] in
  let r = N.run ~faults ~n:3 ~rounds:2 (recorder ~n:3) in
  Alcotest.(check bool) "p1 missed p0" false
    (List.exists (fun (_, s, _) -> s = 0) (receipts r 1));
  Alcotest.(check int) "p2 heard everyone" 3 (List.length (receipts r 2));
  Alcotest.(check int) "one delivery suppressed" 1 r.N.messages_dropped;
  Alcotest.(check int) "sends still counted" 9 r.N.messages_sent

let test_duplicate () =
  let faults = F.plan [ F.Duplicate { round = 1; src = 2; dst = 0 } ] in
  let r = N.run ~faults ~n:3 ~rounds:1 (recorder ~n:3) in
  Alcotest.(check int) "p0 got p2 twice" 2
    (List.length (List.filter (fun (_, s, _) -> s = 2) (receipts r 0)));
  Alcotest.(check int) "p1 unaffected" 3 (List.length (receipts r 1))

let test_delay () =
  let faults = F.plan [ F.Delay { round = 1; src = 0; dst = 1; by = 1 } ] in
  let r = N.run ~faults ~n:3 ~rounds:2 (recorder ~n:3) in
  Alcotest.(check bool) "p0's message reached p1 one round late" true
    (List.mem (2, 0, 0) (receipts r 1) && not (List.mem (1, 0, 0) (receipts r 1)));
  Alcotest.(check int) "nothing lost" 0 r.N.messages_dropped

let test_delay_past_horizon () =
  let faults = F.plan [ F.Delay { round = 1; src = 0; dst = 1; by = 5 } ] in
  let r = N.run ~faults ~n:3 ~rounds:2 (recorder ~n:3) in
  Alcotest.(check bool) "never delivered" false
    (List.exists (fun (_, s, _) -> s = 0) (receipts r 1));
  Alcotest.(check int) "counted as dropped" 1 r.N.messages_dropped

let test_crash_stop () =
  let faults = F.plan [ F.Crash { proc = 2; round = 1 } ] in
  let r = N.run ~faults ~n:3 ~rounds:2 (recorder ~n:3) in
  Alcotest.(check (option reject)) "crashed process has no output" None
    (Option.map ignore r.N.outputs.(2));
  Alcotest.(check bool) "p0 never heard p2" false
    (List.exists (fun (_, s, _) -> s = 2) (receipts r 0))

let test_crash_later_round () =
  (* Crashing at round 2 leaves the round-1 broadcast intact. *)
  let faults = F.plan [ F.Crash { proc = 2; round = 2 } ] in
  let r = N.run ~faults ~n:3 ~rounds:2 (recorder ~n:3) in
  Alcotest.(check bool) "round-1 broadcast delivered" true
    (List.exists (fun (_, s, _) -> s = 2) (receipts r 0));
  Alcotest.(check (option reject)) "but output still suppressed" None
    (Option.map ignore r.N.outputs.(2))

(* Every round, everyone floods; used to see a partition heal. *)
let chatty =
  {
    N.init = (fun _ -> []);
    send = (fun ~round:_ ~me _ -> [ (N.All, me) ]);
    recv =
      (fun ~round ~me:_ st inbox ->
        st @ List.map (fun (sender, _) -> (round, sender)) inbox);
    output = (fun ~me:_ st -> Some st);
  }

let test_partition_heals () =
  let faults =
    F.plan [ F.Partition { from_round = 1; heal_round = 2; groups = [ [ 0; 1 ]; [ 2 ] ] } ]
  in
  let r = N.run ~faults ~n:3 ~rounds:2 chatty in
  let heard = Option.get r.N.outputs.(0) in
  Alcotest.(check bool) "cross-group message lost in round 1" false (List.mem (1, 2) heard);
  Alcotest.(check bool) "delivered after healing" true (List.mem (2, 2) heard);
  Alcotest.(check bool) "same-group unaffected" true (List.mem (1, 1) heard)

let test_corrupt_hook () =
  let faults =
    F.plan
      ~corrupt:(fun ~round:_ ~src:_ ~dst:_ v -> v + 100)
      [ F.Corrupt { round = 1; src = 1; dst = 0 } ]
  in
  let r = N.run ~faults ~n:3 ~rounds:1 (recorder ~n:3) in
  Alcotest.(check bool) "p0 saw the corrupted payload" true (List.mem (1, 1, 101) (receipts r 0));
  Alcotest.(check bool) "p2 saw the original" true (List.mem (1, 1, 1) (receipts r 2))

let test_composes_with_adversary () =
  (* A silent (crashed-from-start) adversary on p1 plus a fault plan
     dropping p0->p2: both effects visible, honest code untouched. *)
  let faults = F.plan [ F.Drop { round = 1; src = 0; dst = 2 } ] in
  let r = N.run ~adversary:(N.silent [ 1 ]) ~faults ~n:3 ~rounds:1 (recorder ~n:3) in
  Alcotest.(check int) "p2 heard only itself" 1 (List.length (receipts r 2));
  Alcotest.(check (option reject)) "corrupt output suppressed" None
    (Option.map ignore r.N.outputs.(1))

let test_no_faults_unchanged () =
  (* The default plan is the identity: same receipts, no drops. *)
  let plain = N.run ~n:4 ~rounds:2 (recorder ~n:4) in
  let idle = N.run ~faults:(F.plan []) ~n:4 ~rounds:2 (recorder ~n:4) in
  Alcotest.(check bool) "outputs identical" true (plain.N.outputs = idle.N.outputs);
  Alcotest.(check int) "no drops" 0 idle.N.messages_dropped

let test_culprits_and_mask () =
  let s =
    [
      F.Drop { round = 1; src = 2; dst = 0 };
      F.Crash { proc = 1; round = 2 };
      F.Partition { from_round = 1; heal_round = 2; groups = [ [ 0 ]; [ 1; 2 ] ] };
      F.Drop { round = 2; src = 2; dst = 1 };
    ]
  in
  Alcotest.(check (list int)) "blames the tampered senders and the crash" [ 1; 2 ]
    (F.culprits s);
  Alcotest.(check (array (option int))) "mask suppresses culprit outputs"
    [| Some 1; None; None |]
    (F.mask s [| Some 1; Some 2; Some 3 |])

(* {1 Below the fault threshold: no schedule may break the protocols} *)

let below_threshold name gen sys =
  QCheck.Test.make ~count:60 ~name
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let schedule = gen (B.Prng.create seed) in
      X.failures sys schedule = [])

let eig_below_crash =
  below_threshold "eig n=4 t=1: agreement+validity under any <=t crash schedule"
    (fun rng -> F.random_schedule rng (F.crash_only ~n:4 ~rounds:2 ~max_crashes:1))
    (FS.eig_system ~n:4 ~t:1 ~values:[| 1; 1; 1; 1 |])

let eig_below_omission =
  below_threshold "eig n=4 t=1: robust to <=t culprits dropping/delaying/duplicating"
    (fun rng -> F.random_schedule rng (F.omission ~n:4 ~rounds:2 ~max_events:4 ~max_culprits:1))
    (FS.eig_system ~n:4 ~t:1 ~values:[| 1; 1; 1; 1 |])

let ds_below =
  below_threshold "dolev-strong n=3 t=1 (PKI): agreement under <=t crash schedules"
    (fun rng -> F.random_schedule rng (F.crash_only ~n:3 ~rounds:2 ~max_crashes:1))
    (FS.dolev_strong_system ~n:3 ~t:1)

let floodset_below =
  below_threshold "floodset n=4 f=1: agreement+validity under <=f crash schedules"
    (fun rng -> F.random_schedule rng (F.crash_only ~n:4 ~rounds:2 ~max_crashes:1))
    (FS.floodset_system ~n:4 ~f:1 ~values:[| 2; 1; 3; 2 |])

let phase_king_below =
  below_threshold "phase-king n=5 t=1: agreement+validity under <=t crash schedules"
    (fun rng -> F.random_schedule rng (F.crash_only ~n:5 ~rounds:4 ~max_crashes:1))
    (FS.phase_king_system ~n:5 ~t:1 ~values:[| 1; 0; 1; 1; 0 |])

(* {1 Above the threshold: the explorer must find and shrink a violation} *)

let n3t1_report ?pool ?(trials = 50) () = FS.explore_eig_n3t1 ?pool ~seed:42 ~trials ()

let test_explorer_finds_n3t1_violation () =
  let report = n3t1_report () in
  Alcotest.(check bool) "violations found" true (report.X.violations <> []);
  let v = List.hd report.X.violations in
  Alcotest.(check bool) "shrunk to <= 3 events" true (List.length v.X.shrunk <= 3);
  Alcotest.(check bool) "shrunk schedule still violates" true (v.X.shrunk_failed <> [])

let test_shrunk_is_locally_minimal () =
  let sys = FS.eig_system ~n:3 ~t:1 ~values:[| 1; 1; 1 |] in
  let v = List.hd (n3t1_report ()).X.violations in
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) v.X.shrunk in
      Alcotest.(check (list string))
        (Printf.sprintf "removing event %d of the shrunk schedule repairs the run" i)
        [] (X.failures sys without))
    v.X.shrunk

let test_golden_shrunk_transcript () =
  (* Pinned replayable counterexample: the explorer's verdict for seed 42
     must never drift (same schedule, same shrink, same replay line). *)
  let report = n3t1_report () in
  Alcotest.(check string) "golden transcript"
    "explore eig-n3-t1/omission: seed=42 trials=50 violations=33\n\
    \  first violation: trial=0 failed=[validity]\n\
    \  schedule: [crash p0@r1; crash p0@r1; dup r2 0->1]\n\
    \  shrunk (1 event): [crash p0@r1]  failed=[validity]\n\
    \  replay: --explore 50 --seed 42  (trial 0)\n"
    (X.transcript ~name:"eig-n3-t1/omission" report)

(* {1 Determinism: verdicts independent of -j and reproducible by seed} *)

let report_fingerprint r =
  String.concat "|"
    (Printf.sprintf "seed=%d trials=%d" r.X.seed r.X.trials
    :: List.map
         (fun v ->
           Printf.sprintf "%d:%s=>%s[%s]" v.X.trial
             (F.schedule_to_string v.X.schedule)
             (F.schedule_to_string v.X.shrunk)
             (String.concat "," v.X.failed))
         r.X.violations)

let test_explorer_jobs_invariant () =
  let serial = n3t1_report ~pool:(B.Pool.create ~domains:1 ()) () in
  let parallel = n3t1_report ~pool:(B.Pool.create ~domains:4 ()) () in
  Alcotest.(check string) "identical verdicts at -j 1 and -j 4"
    (report_fingerprint serial) (report_fingerprint parallel)

let test_explorer_rerun_invariant () =
  Alcotest.(check string) "identical verdicts across two same-seed runs"
    (report_fingerprint (n3t1_report ())) (report_fingerprint (n3t1_report ()))

let test_random_schedule_deterministic () =
  let gen seed =
    F.random_schedule (B.Prng.create seed) (F.omission ~n:5 ~rounds:3 ~max_events:5 ~max_culprits:2)
  in
  Alcotest.(check string) "same seed, same schedule"
    (F.schedule_to_string (gen 7)) (F.schedule_to_string (gen 7));
  Alcotest.(check bool) "culprit bound respected" true
    (List.length (F.culprits (gen 12345)) <= 2)

let suite =
  [
    Alcotest.test_case "sync: drop" `Quick test_drop;
    Alcotest.test_case "sync: duplicate" `Quick test_duplicate;
    Alcotest.test_case "sync: delay" `Quick test_delay;
    Alcotest.test_case "sync: delay past horizon" `Quick test_delay_past_horizon;
    Alcotest.test_case "sync: crash-stop" `Quick test_crash_stop;
    Alcotest.test_case "sync: crash at round 2" `Quick test_crash_later_round;
    Alcotest.test_case "sync: partition heals" `Quick test_partition_heals;
    Alcotest.test_case "sync: corrupt hook" `Quick test_corrupt_hook;
    Alcotest.test_case "sync: composes with adversary" `Quick test_composes_with_adversary;
    Alcotest.test_case "sync: empty plan is identity" `Quick test_no_faults_unchanged;
    Alcotest.test_case "culprits and mask" `Quick test_culprits_and_mask;
    QCheck_alcotest.to_alcotest eig_below_crash;
    QCheck_alcotest.to_alcotest eig_below_omission;
    QCheck_alcotest.to_alcotest ds_below;
    QCheck_alcotest.to_alcotest floodset_below;
    QCheck_alcotest.to_alcotest phase_king_below;
    Alcotest.test_case "explore: finds n=3t violation, shrinks <=3" `Quick
      test_explorer_finds_n3t1_violation;
    Alcotest.test_case "explore: shrunk schedule locally minimal" `Quick
      test_shrunk_is_locally_minimal;
    Alcotest.test_case "explore: golden shrunk transcript" `Quick test_golden_shrunk_transcript;
    Alcotest.test_case "explore: jobs=1 = jobs=4" `Slow test_explorer_jobs_invariant;
    Alcotest.test_case "explore: rerun same seed" `Quick test_explorer_rerun_invariant;
    Alcotest.test_case "random_schedule deterministic" `Quick test_random_schedule_deterministic;
  ]
