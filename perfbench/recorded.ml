(* Reference answers recorded when the benchmark was frozen. *)

(* MD5 of each experiment's transcript, in registry order; identical to
   the sections of [main.exe all -j 1]. *)
let paper =
  [
    ("E1", "7944dac0f1b84293cec635df9548fdfc");
    ("E2", "90959ed5dcccf200b19ef60e1f435c80");
    ("E3", "68ef95c84703caed1e284d3d29f3b5ce");
    ("E4", "63bf11fe28d2138f5976b079a85887eb");
    ("E5", "351bdf0de10033bad471d22fc1244e3b");
    ("E6", "c1df08a1e201cccc97d5cda9f8bdfb68");
    ("E7", "bf90b418297a3552def423948ded36fb");
    ("E8", "a65f021e264ac9e943f5f7084cff3a7f");
    ("E9", "def433efa88cff113f9044f006a75fdd");
    ("E10", "d3c082fd29a429c554ab7e35b0b12f76");
    ("E11", "bf68bf07cb76d8391544ba828c3ae028");
    ("E12", "ef0cf5b06e8ee6eba73ca6a6914a37fe");
    ("E13", "5ce5d0a0d1938353fc4287358ae868e9");
    ("E14", "3b06b65e62fda3088cba0833926462a2");
    ("E15", "bad36254d26135e28b5cf1764947cc76");
    ("E16", "566e14dae0745ac5fb246ee0b34e2b50");
    ("E17", "2f7a970461497028c56a1da22aef0865");
  ]

type lint = { files : int; findings : int; json_digest : string }

(* The [lint] snapshot in [_corpus]: .ml/.mli files scanned, findings
   (all suppressed) and the MD5 of [Lint.to_json], identical to
   [lint.exe --root perfbench/_corpus --json]. *)
let lint = { files = 225; findings = 8; json_digest = "a49de9f0690e1e8f95e76b759b95cc2d" }

(* The [solve] pool games that fail through the known revised-simplex
   defect, with the outcome seen when the benchmark was frozen. A failure
   on any other game, or on one of these with another reason or detail,
   makes a run incorrect; these only count as failed ops. A fixed
   simplex should empty this list. *)
let solve_known_failures =
  let deadline = Harness.fail "deadline" "1.0 s deadline missed in correlated.max_welfare" in
  [
    (4, deadline);
    (9, deadline);
    (14, deadline);
    (19, deadline);
    (* max_welfare returns a NaN welfare with this distribution *)
    (29, Harness.fail "check" "not a correlated equilibrium");
    (39, deadline);
  ]
