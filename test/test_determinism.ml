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

let check_jobs_invariant id () =
  let serial = render ~jobs:1 id in
  let parallel = render ~jobs:4 id in
  Alcotest.(check bool)
    (id ^ " transcript is non-trivial")
    true
    (String.length serial > 100);
  Alcotest.(check string) (id ^ " identical at jobs=1 and jobs=4") serial parallel

(* E6 and E10 against the transcript MD5s recorded when the benchmark
   was frozen (perfbench/recorded.ml): their fast paths (digit mulmod,
   single-test sampling, binary-search routing) must reproduce the tables
   of the original bit-serial and linear-scan code byte for byte. *)
let recorded_md5 =
  [ ("E6", "c1df08a1e201cccc97d5cda9f8bdfb68"); ("E10", "d3c082fd29a429c554ab7e35b0b12f76") ]

let check_recorded_md5 id () =
  let expected = List.assoc id recorded_md5 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "%s transcript MD5 at jobs=%d" id jobs)
        expected
        (Digest.to_hex (Digest.string (render ~jobs id))))
    [ 1; 2 ]

let check_render_matches_run_all () =
  (* run_all is exactly the concatenation of the individual renders, so the
     full transcript inherits the per-experiment guarantee. *)
  let ids = List.map (fun (n, _, _) -> n) Bn_experiments.Experiments.all in
  let one = render ~jobs:2 (List.hd ids) in
  Alcotest.(check bool) "render starts with the banner" true
    (String.length one > 8 && String.sub one 0 8 = "########")

let suite =
  [
    Alcotest.test_case "E1 golden: jobs=1 = jobs=4" `Slow (check_jobs_invariant "E1");
    Alcotest.test_case "E5 golden: jobs=1 = jobs=4" `Slow (check_jobs_invariant "E5");
    Alcotest.test_case "E13 golden: jobs=1 = jobs=4" `Slow (check_jobs_invariant "E13");
    Alcotest.test_case "E17 golden: jobs=1 = jobs=4" `Slow (check_jobs_invariant "E17");
    Alcotest.test_case "E6 golden: recorded MD5" `Slow (check_recorded_md5 "E6");
    Alcotest.test_case "E10 golden: recorded MD5" `Slow (check_recorded_md5 "E10");
    Alcotest.test_case "render banner" `Quick check_render_matches_run_all;
  ]
