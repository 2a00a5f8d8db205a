(* Aggregated test runner for every library in the reproduction. *)
let () =
  Alcotest.run "beyond_nash"
    [
      ("util", Test_util.suite);
      ("pool", Test_pool.suite);
      ("lp", Test_lp.suite);
      ("game", Test_game.suite);
      ("bayesian", Test_bayesian.suite);
      ("extensive", Test_extensive.suite);
      ("robust", Test_robust.suite);
      ("crypto", Test_crypto.suite);
      ("dist-byz", Test_dist_byz.suite);
      ("faults", Test_faults.suite);
      ("mediator", Test_mediator.suite);
      ("async-mediator", Test_async_mediator.suite);
      ("machine", Test_machine.suite);
      ("repeated", Test_repeated.suite);
      ("awareness", Test_awareness.suite);
      ("scrip-p2p", Test_scrip_p2p.suite);
      ("soa", Test_soa.suite);
      ("steady-state", Test_steady_state.suite);
      ("solution", Test_solution.suite);
      ("correlated", Test_correlated.suite);
      ("rational-ss", Test_rational_ss.suite);
      ("protocols2", Test_protocols2.suite);
      ("canned-sunspot", Test_canned_sunspot.suite);
      ("rationalizable-parse", Test_rationalizable_parse.suite);
      ("experiments", Test_experiments.suite);
      ("obs", Test_obs.suite);
      ("determinism", Test_determinism.suite);
      ("json", Test_json.suite);
      ("lint", Test_lint.suite);
    ]
