(* Golden-output determinism: rendering an experiment with a parallel
   domain budget must produce the byte-exact transcript of the serial run.
   This is the contract that lets run_all parallelize paper tables without
   ever silently reordering or perturbing them. E1 exercises the parallel
   coalition enumeration in Robust, E5 the split-stream (n,k,t) grid
   sweep, E13 the Monte Carlo loop over Pool.iter_grid, and E17 the
   sharded SoA engines (batched cross-shard exchange + split streams). *)

let render ~jobs id =
  match Bn_experiments.Experiments.render ~jobs id with
  | Some transcript -> transcript
  | None -> Alcotest.failf "unknown experiment %s" id

(* Every experiment against the transcript MD5s recorded when the
   benchmark was frozen (perfbench/recorded.ml). The fast paths of E6
   (digit mulmod, single-test sampling) and E10 (binary-search routing),
   and the shared deviation kernel behind E5, E8, E9 and E16's checkers,
   must reproduce the original tables byte for byte. *)
let recorded_md5 =
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

let check_md5 id ~jobs transcript =
  Alcotest.(check string)
    (Printf.sprintf "%s transcript MD5 at jobs=%d" id jobs)
    (List.assoc id recorded_md5)
    (Digest.to_hex (Digest.string transcript))

let check_jobs_invariant id () =
  let serial = render ~jobs:1 id in
  let parallel = render ~jobs:4 id in
  Alcotest.(check bool)
    (id ^ " transcript is non-trivial")
    true
    (String.length serial > 100);
  Alcotest.(check string) (id ^ " identical at jobs=1 and jobs=4") serial parallel;
  check_md5 id ~jobs:1 serial

let check_recorded_md5 id () = List.iter (fun jobs -> check_md5 id ~jobs (render ~jobs id)) [ 1; 4 ]

let check_render_matches_run_all () =
  (* run_all is exactly the concatenation of the individual renders, so the
     full transcript inherits the per-experiment guarantee. *)
  let ids = List.map (fun (n, _, _) -> n) Bn_experiments.Experiments.all in
  let one = render ~jobs:2 (List.hd ids) in
  Alcotest.(check bool) "render starts with the banner" true
    (String.length one > 8 && String.sub one 0 8 = "########")

(* Experiments whose jobs=1 and jobs=4 renders are compared in full; the
   rest are checked against their digest only. *)
let jobs_goldens = [ "E1"; "E5"; "E13"; "E17" ]

let suite =
  List.map
    (fun id ->
      Alcotest.test_case (id ^ " golden: jobs=1 = jobs=4") `Slow (check_jobs_invariant id))
    jobs_goldens
  @ List.filter_map
      (fun (id, _) ->
        if List.mem id jobs_goldens then None
        else Some (Alcotest.test_case (id ^ " golden: recorded MD5") `Slow (check_recorded_md5 id)))
      recorded_md5
  @ [ Alcotest.test_case "render banner" `Quick check_render_matches_run_all ]
