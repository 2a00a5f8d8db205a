(** E14 (extension) — rational secret sharing (Halpern–Teague): why some
    regimes need unbounded (finite-expected) running time.

    The paper's bullets 2-3 state that below n = 3k+3t, implementation
    requires punishment and cannot have bounded running time. Rational
    secret sharing is the canonical mechanism: the randomized-rounds
    protocol is an equilibrium exactly when the real-round probability α is
    at most learn/(learn+exclusivity), and its round count is geometric —
    finite expected, unbounded worst case. *)

module B = Beyond_nash
module R = B.Rational_ss

let name = "E14"
let title = "rational secret sharing: equilibrium region and expected rounds"

let run ?(jobs = 1) () =
  let pool = B.Pool.create ~domains:jobs () in
  let u = R.default_utility in
  let n = 3 in
  let bound = R.honest_equilibrium_alpha u ~n in
  B.Out.printf "utility: learn = %.1f, exclusivity = %.1f, n = %d -> equilibrium iff alpha <= %.4f\n\n"
    u.R.learn u.R.exclusivity n bound;
  let tab =
    B.Tab.create ~title
      [ "alpha"; "deviation gain (closed form)"; "deviation gain (measured)"; "E[rounds]"; "honest eq?" ]
  in
  let rng = B.Prng.create 1624 in
  List.iter
    (fun alpha ->
      let analytic = R.deviation_gain u ~n ~alpha in
      let measured = R.empirical_deviation_gain ~pool rng ~n ~alpha ~utility:u ~trials:3000 in
      B.Tab.add_row tab
        [
          B.Tab.fmt_float alpha;
          B.Tab.fmt_float analytic;
          B.Tab.fmt_float measured;
          B.Tab.fmt_float (R.expected_rounds ~alpha);
          string_of_bool (analytic <= 1e-9);
        ])
    [ 0.1; 0.3; bound; 0.6; 0.8; 0.95 ];
  B.Tab.print tab;
  (* The one-shot (bounded, deterministic) protocol is exactly alpha = 1:
     deviation gain = exclusivity > 0, so it is never an equilibrium. *)
  B.Out.printf
    "alpha = 1 (deterministic one-shot exchange): deviation gain = %s > 0 — the\n\
     Halpern-Teague impossibility; no bounded-round protocol works, matching the paper's\n\
     'nor with bounded running time' in bullet 2.\n\n"
    (B.Tab.fmt_float (R.deviation_gain u ~n ~alpha:1.0));
  (* A sample run's round counts. *)
  let rounds =
    List.init 12 (fun i ->
        let o =
          R.simulate (B.Prng.create (100 + i)) ~n:3 ~alpha:0.4 ~utility:u ~withholder:None
            ~secret:777
        in
        string_of_int o.R.rounds)
  in
  B.Out.printf "sample honest runs at alpha = 0.4 (geometric rounds): %s\n\n"
    (String.concat ", " rounds)
