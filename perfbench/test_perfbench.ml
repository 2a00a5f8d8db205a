(* The benchmark's checks must not pass by accident: each kind of bad
   output counts as one failed op, and the loop goes on to the next op. *)

open Perfbench
module B = Beyond_nash

let run ops = Harness.run_passes ~passes:1 (Array.of_list ops)

let reasons samples =
  List.map
    (fun (s : Harness.sample) -> match s.outcome with Harness.Pass -> "pass" | Fail { reason; _ } -> reason)
    samples

let check_reasons name expected ops = Alcotest.(check (list string)) name expected (reasons (run ops))

let changed_transcript () =
  let e1 = List.assoc "E1" Recorded.paper in
  check_reasons "doctored E1 digest fails, recorded one passes" [ "check"; "pass" ]
    [ ("E1 doctored", Wl_paper.op [ ("E1", String.make 32 '0') ]); ("E1", Wl_paper.op [ ("E1", e1) ]) ]

let write path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let wrong_lint_digest () =
  let root = Filename.temp_file "perfbench_lint" "" in
  Sys.remove root;
  List.iter (fun d -> Sys.mkdir d 0o755) [ root; Filename.concat root "lib"; Filename.concat root "lib/demo" ];
  write (Filename.concat root "lib/demo/demo.ml") "let answer = 42\n";
  write (Filename.concat root "lib/demo/demo.mli") "val answer : int\n";
  write (Filename.concat root "lib/demo/dune") "(library (name demo))\n";
  let right = Digest.to_hex (Digest.string (Bn_lint.Lint.to_json (Bn_lint.Lint.run ~root))) in
  let expected json_digest = { Recorded.files = 2; findings = 0; json_digest } in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote root)))
    (fun () ->
      check_reasons "wrong digest fails, right one passes" [ "check"; "pass" ]
        [ ("wrong", Wl_lint.op ~root (expected (String.make 32 '0'))); ("right", Wl_lint.op ~root (expected right)) ])

let not_nash () =
  let g = B.Games.prisoners_dilemma_classic in
  let answers eqs () =
    Wl_solve.check g ~pure:[ [| 1; 1 |] ] ~eqs ~ce:(B.Correlated.max_welfare g)
      ~rat:(B.Rationalizable.rationalizable g)
  in
  check_reasons "(C,C) listed as an equilibrium fails" [ "check"; "pass" ]
    [
      ("cooperate", answers [ B.Mixed.pure_profile g [| 0; 0 |] ]);
      ("defect", answers [ B.Mixed.pure_profile g [| 1; 1 |] ]);
    ]

let missed_deadline () =
  let spin () =
    match Harness.with_deadline 0.05 (fun () -> while true do ignore (Sys.opaque_identity 0) done) with
    | None -> Harness.fail "deadline" "spin"
    | Some () -> Harness.Pass
  in
  check_reasons "a hung op and a solve op over their deadline fail; the next ops run"
    [ "deadline"; "pass"; "deadline"; "pass" ]
    [
      ("spin", spin);
      ("2x2", Wl_solve.op ~deadline:60. (Wl_solve.spec 0));
      ("6x6", Wl_solve.op ~deadline:1e-6 (Wl_solve.spec 24));
      ("2x2 again", Wl_solve.op ~deadline:60. (Wl_solve.spec 5));
    ]

let known_failures () =
  let deadline = Harness.fail "deadline" "x" in
  let samples = run [ ("a", fun () -> deadline); ("b", fun () -> Harness.Pass) ] in
  let correct known = Harness.correct ~known samples in
  Alcotest.(check bool) "a recorded failure keeps the run correct" true (correct [ ("a", deadline) ]);
  Alcotest.(check bool) "an unrecorded one does not" false (correct []);
  Alcotest.(check bool) "nor one recorded with another reason" false (correct [ ("a", Harness.fail "check" "x") ]);
  Alcotest.(check bool) "nor one recorded with another detail" false (correct [ ("a", Harness.fail "deadline" "y") ])

let failed_input_and_scaling () =
  let runs = ref 0 in
  let reference = { Harness.nominal_s = 1.; run = (fun () -> 4.) } in
  let samples =
    Harness.run_passes ~reference ~passes:3
      [| ("a", fun () -> Harness.fail "deadline" "x"); ("b", fun () -> incr runs; Harness.Pass) |]
  in
  Alcotest.(check (list string)) "a failed input runs once" [ "a"; "b"; "b"; "b" ]
    (List.map (fun (s : Harness.sample) -> s.label) samples);
  Alcotest.(check int) "the passing one every pass" 3 !runs;
  Alcotest.(check (list (float 0.))) "passing ops are scaled to the reference, failed ones are not" [ 1.; 0.25; 0.25; 0.25 ]
    (List.map (fun (s : Harness.sample) -> s.scale) samples)

let stepped_op () =
  let reference =
    { Harness.nominal_s = 1.; run = (fun () -> ignore (Sys.opaque_identity (Array.make 100_000 0.)); 4.) }
  in
  let op () =
    Harness.step ();
    Unix.sleepf Harness.reference_every_s;
    Harness.step ();
    Harness.Pass
  in
  match Harness.run_passes ~reference ~passes:1 [| ("stepped", op) |] with
  | [ s ] ->
    Alcotest.(check (float 1e-9)) "every step is scaled" 0.25 s.scale;
    Alcotest.(check bool) "the reference's allocation is not the op's" true (s.alloc_w < 10_000.)
  | samples -> Alcotest.failf "%d samples, expected 1" (List.length samples)

let () =
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "changed transcript" `Quick changed_transcript;
          Alcotest.test_case "wrong lint digest" `Quick wrong_lint_digest;
          Alcotest.test_case "profile that is not Nash" `Quick not_nash;
          Alcotest.test_case "missed deadline" `Quick missed_deadline;
          Alcotest.test_case "known failures" `Quick known_failures;
          Alcotest.test_case "failed input and scaling" `Quick failed_input_and_scaling;
          Alcotest.test_case "stepped op" `Quick stepped_op;
        ] );
    ]
