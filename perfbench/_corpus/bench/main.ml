(* Benchmark harness: regenerates every experiment table (E1-E12, one per
   table/claim in the paper — see DESIGN.md section 4) and then runs a
   bechamel microbenchmark suite over the core algorithmic kernels. *)

module B = Beyond_nash

(* [-j N] picks the domain budget for the experiment tables and the
   parallel kernels; results are bit-identical for every N. [--json FILE]
   additionally dumps the bechamel OLS estimates and the serial/parallel
   wall-clock rows as JSON (the perf-trajectory artifact, e.g.
   BENCH_2.json). [--quick] skips the experiment tables and shrinks the
   bechamel quota — the CI smoke configuration. *)
let jobs =
  let rec scan = function
    | "-j" :: n :: _ | "--jobs" :: n :: _ -> int_of_string n
    | _ :: rest -> scan rest
    | [] -> B.Pool.default_jobs ()
  in
  scan (Array.to_list Sys.argv)

let json_file =
  let rec scan = function
    | "--json" :: f :: _ -> Some f
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

let quick = Array.exists (String.equal "--quick") Sys.argv

(* Identify the tree that produced a BENCH_*.json so artifacts are
   comparable across PRs: `git describe` (falling back to the bare
   commit hash), "-dirty" when the worktree is modified, "unknown"
   outside a repository. *)
let git_describe () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, line when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let experiments () = Bn_experiments.Experiments.run_all ~jobs ()

(* {1 Bechamel microbenchmarks} *)

open Bechamel
open Toolkit

let bench_nash_support_enum =
  Test.make ~name:"nash/support-enum-3x3"
    (Staged.stage (fun () -> ignore (B.Nash.support_enumeration_2p B.Games.roshambo)))

let bench_zero_sum_lp =
  Test.make ~name:"zero-sum/lp-value-3x3"
    (Staged.stage (fun () -> ignore (B.Zero_sum.value B.Games.roshambo)))

let bench_robust_check =
  let g = B.Games.coordination_01 5 in
  let prof = B.Mixed.pure_profile g (Array.make 5 0) in
  Test.make ~name:"robust/2-resilience-n5"
    (Staged.stage (fun () -> ignore (B.Robust.is_k_resilient g prof ~k:2)))

(* Serial vs. parallel rows for the same kernel, so BENCH json tracks the
   multicore speedup alongside the serial baseline. The bargaining all-stay
   profile IS 3-resilient, so the check enumerates every coalition and
   deviation — no early exit — which is the workload worth parallelizing.
   (On a single-core box the parallel row only measures pool overhead.) *)
let robust_speedup_game = B.Games.bargaining 8
let robust_speedup_prof = B.Mixed.pure_profile robust_speedup_game (Array.make 8 0)

let bench_robust_serial =
  Test.make ~name:"robust/3-resilience-n8-serial"
    (Staged.stage (fun () ->
         ignore (B.Robust.is_k_resilient robust_speedup_game robust_speedup_prof ~k:3)))

let bench_robust_parallel =
  Test.make ~name:"robust/3-resilience-n8-parallel"
    (Staged.stage (fun () ->
         ignore (B.Robust.is_k_resilient ~jobs robust_speedup_game robust_speedup_prof ~k:3)))

let bench_shamir =
  let rng = B.Prng.create 1 in
  Test.make ~name:"crypto/shamir-share-n7"
    (Staged.stage (fun () -> ignore (B.Shamir.share rng ~secret:12345 ~threshold:2 ~n:7)))

let bench_berlekamp_welch =
  let rng = B.Prng.create 2 in
  let shares = B.Shamir.share rng ~secret:999 ~threshold:2 ~n:9 in
  let corrupted =
    List.mapi
      (fun i s -> if i < 2 then { s with B.Shamir.y = B.Field.add s.B.Shamir.y 5 } else s)
      shares
  in
  Test.make ~name:"crypto/berlekamp-welch-n9-e2"
    (Staged.stage (fun () ->
         ignore (B.Shamir.robust_reconstruct ~degree:2 ~max_errors:2 corrupted)))

let bench_eig =
  Test.make ~name:"byzantine/eig-n7-t2"
    (Staged.stage (fun () ->
         ignore (B.Eig.run ~n:7 ~t:2 ~values:[| 1; 0; 1; 1; 0; 0; 1 |] ~default:0 ())))

let bench_miller_rabin =
  Test.make ~name:"machine/miller-rabin-2^31-1"
    (Staged.stage (fun () -> ignore (B.Primality.is_prime 2147483647)))

let bench_frpd_equilibrium =
  let spec =
    { B.Frpd.stage = B.Repeated.pd_paper; horizon = 10; delta = 0.9; memory_cost = 0.05 }
  in
  let space = B.Frpd.paper_space ~horizon:10 in
  Test.make ~name:"repeated/frpd-equilibrium-check"
    (Staged.stage (fun () ->
         ignore (B.Frpd.is_equilibrium ~space spec B.Automaton.tit_for_tat)))

let bench_awareness_gne =
  Test.make ~name:"awareness/fig1-pure-gne"
    (Staged.stage (fun () -> ignore (B.Aware_examples.generalized_equilibria ~p:0.25)))

let bench_correlated_lp =
  Test.make ~name:"correlated/max-welfare-chicken"
    (Staged.stage (fun () -> ignore (B.Correlated.max_welfare B.Games.chicken)))

let bench_rationalizable =
  Test.make ~name:"rationalizable/pd"
    (Staged.stage (fun () -> ignore (B.Rationalizable.rationalizable B.Games.prisoners_dilemma)))

let bench_phase_king =
  Test.make ~name:"byzantine/phase-king-n9-t2"
    (Staged.stage (fun () ->
         ignore (B.Phase_king.run ~n:9 ~t:2 ~values:[| 1; 0; 1; 1; 0; 0; 1; 0; 1 |] ())))

let bench_replicator =
  Test.make ~name:"learning/replicator-500-rounds"
    (Staged.stage (fun () ->
         ignore (B.Learning.replicator ~rounds:500 B.Games.prisoners_dilemma)))

let bench_fictitious_play =
  Test.make ~name:"learning/fictitious-play-500-rounds"
    (Staged.stage (fun () ->
         ignore (B.Learning.fictitious_play ~rounds:500 B.Games.matching_pennies)))

(* The value LP of a fixed 8×8 zero-sum game (v free as v⁺ − v⁻): 10
   variables, 8 inequality rows plus one equality, so both simplex phases
   run on every call. *)
let bench_revised_simplex =
  let n = 8 in
  let payoff i j = float_of_int ((((i * 37) + (j * 11) + ((i * j) mod 13)) mod 17) - 8) in
  let constraints =
    List.init n (fun j ->
        B.Simplex.ge
          (Array.init (n + 2) (fun k ->
               if k < n then payoff k j else if k = n then -1.0 else 1.0))
          0.0)
    @ [ B.Simplex.eq (Array.init (n + 2) (fun k -> if k < n then 1.0 else 0.0)) 1.0 ]
  in
  let objective = Array.init (n + 2) (fun k -> if k = n then 1.0 else if k = n + 1 then -1.0 else 0.0) in
  Test.make ~name:"lp/revised-simplex-8x8"
    (Staged.stage (fun () -> ignore (B.Simplex.solve { B.Simplex.objective; constraints })))

(* The explorer sharded over the work-stealing pool map: 100 seeded
   schedules (invariant checks + shrinking of each violation), the report
   byte-identical at any -j. *)
let bench_explore_sharded =
  let pool = B.Pool.create ~domains:jobs () in
  Test.make ~name:"explore/sharded-100-schedules"
    (Staged.stage (fun () ->
         ignore (Bn_experiments.Fault_sweep.explore_eig_n3t1 ~pool ~seed:42 ~trials:100 ())))

(* Schedule exploration end-to-end: 20 seeded fault schedules against EIG
   at n = 3t, invariant checking plus greedy shrinking of the violations
   it finds (roughly two thirds of the schedules violate). *)
let bench_fault_explore =
  Test.make ~name:"faults/explore-eig-n3-t1-20"
    (Staged.stage (fun () ->
         ignore (Bn_experiments.Fault_sweep.explore_eig_n3t1 ~seed:42 ~trials:20 ())))

(* The mediator sweep's smallest impossibility cell, end-to-end: 10 seeded
   schedules against the asynchronous cheap-talk protocol at n = 4(k+t),
   including invariant checks and shrinking of every violation found. *)
let bench_mediator_sweep =
  Test.make ~name:"mediator/async-sweep-quick"
    (Staged.stage (fun () ->
         ignore (Bn_experiments.Mediator_sweep.explore_async_n4k1t0 ~seed:42 ~trials:10 ())))

let microbenches =
  Test.make_grouped ~name:"beyond_nash" ~fmt:"%s %s"
    [
      bench_nash_support_enum;
      bench_zero_sum_lp;
      bench_robust_check;
      bench_robust_serial;
      bench_robust_parallel;
      bench_shamir;
      bench_berlekamp_welch;
      bench_eig;
      bench_miller_rabin;
      bench_frpd_equilibrium;
      bench_awareness_gne;
      bench_correlated_lp;
      bench_rationalizable;
      bench_phase_king;
      bench_replicator;
      bench_fictitious_play;
      bench_revised_simplex;
      bench_explore_sharded;
      bench_fault_explore;
      bench_mediator_sweep;
    ]

(* Per-sample ns/run distribution for one benchmark: each of bechamel's
   raw measurements divided by its run count. Gives the run count and
   the spread (p50/p99/stddev) that the OLS point estimate hides. *)
let sample_stats raw name =
  match Hashtbl.find_opt raw name with
  | None -> None
  | Some (b : Benchmark.t) -> (
    let label = Measure.label Instance.monotonic_clock in
    let samples =
      List.filter_map
        (fun m ->
          let r = Measurement_raw.run m in
          if r > 0.0 then Some (Measurement_raw.get ~label m /. r) else None)
        (Array.to_list b.lr)
    in
    match List.sort compare samples with
    | [] -> None
    | sorted ->
      let n = List.length sorted in
      let arr = Array.of_list sorted in
      let pct q =
        arr.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
      in
      let mean = List.fold_left ( +. ) 0.0 sorted /. float_of_int n in
      let var =
        List.fold_left (fun a x -> a +. ((x -. mean) *. (x -. mean))) 0.0 sorted
        /. float_of_int n
      in
      Some (b.stats.samples, pct 0.5, pct 0.99, sqrt var))

let pp_ns est =
  if est > 1e6 then Printf.sprintf "%.3f ms" (est /. 1e6)
  else if est > 1e3 then Printf.sprintf "%.3f us" (est /. 1e3)
  else Printf.sprintf "%.1f ns" est

(* Runs the suite, prints the table and returns
   [(name, ns_per_run, (runs, p50, p99, stddev) option)] rows (only rows
   with a usable OLS estimate) for the JSON dump. *)
let run_microbenches () =
  print_endline "######## microbenchmarks (bechamel; time per run) ########\n";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let quota = Time.second (if quick then 0.05 else 0.25) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:None () in
  let raw = Benchmark.all cfg instances microbenches in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = B.Tbl.sorted_bindings results in
  let tab =
    B.Tab.create ~title:"core kernels" [ "benchmark"; "time/run"; "runs"; "p50"; "p99" ]
  in
  let estimates =
    List.filter_map
      (fun (name, ols) ->
        let est =
          match Analyze.OLS.estimates ols with Some [ est ] -> Some est | Some _ | None -> None
        in
        let stats = sample_stats raw name in
        let cell = match est with Some est -> pp_ns est | None -> "n/a" in
        let scell f = match stats with Some s -> f s | None -> "n/a" in
        B.Tab.add_row tab
          [
            name; cell;
            scell (fun (runs, _, _, _) -> string_of_int runs);
            scell (fun (_, p50, _, _) -> pp_ns p50);
            scell (fun (_, _, p99, _) -> pp_ns p99);
          ];
        Option.map (fun est -> (name, est, stats)) est)
      rows
  in
  B.Tab.print tab;
  estimates

(* Wall-clock serial-vs-parallel comparison of the robustness kernel: the
   headline number for the Pool fast path (bechamel's per-run OLS rows
   above feed BENCH json; this table is the human-readable speedup). *)
let run_speedup_table () =
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let tab =
    B.Tab.create ~title:"robustness kernel: serial vs parallel"
      [ "kernel"; "serial"; Printf.sprintf "parallel (-j %d)" jobs; "speedup"; "agree" ]
  in
  let serial_r, serial_t =
    wall (fun () -> B.Robust.is_k_resilient robust_speedup_game robust_speedup_prof ~k:3)
  in
  let par_r, par_t =
    wall (fun () -> B.Robust.is_k_resilient ~jobs robust_speedup_game robust_speedup_prof ~k:3)
  in
  B.Tab.add_row tab
    [
      "robust/3-resilience-n8";
      Printf.sprintf "%.1f ms" (serial_t *. 1e3);
      Printf.sprintf "%.1f ms" (par_t *. 1e3);
      Printf.sprintf "%.2fx" (serial_t /. par_t);
      string_of_bool (serial_r = par_r);
    ];
  B.Tab.print tab;
  [
    ("robust/3-resilience-n8", "serial", 1, serial_t);
    ("robust/3-resilience-n8", "parallel", jobs, par_t);
  ]

(* Wall-clock rows for the SoA engines at paper scale: one batched sweep
   of 10^6 scrip agents and 10^6 routed queries over 10^6 Gnutella
   users. The workload is identical under --quick — the CI regression
   gate compares exactly these rows against the committed BENCH_8.json.
   (bechamel's 0.25 s quota is too small for multi-hundred-ms runs, so
   these are plain wall-clock measurements like the speedup table.) *)
let run_soa_table () =
  let wall f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let n = 1_000_000 in
  let pool = B.Pool.create ~domains:jobs () in
  let params = { (B.Scrip.default_params ~n) with B.Scrip.rounds = 0 } in
  let t =
    B.Scrip_soa.create ~shards:64 ~seed:42 ~params
      ~kind_of:(fun _ -> B.Scrip.Standard 5)
      ~money_per_agent:2.5 ()
  in
  B.Scrip_soa.step ~pool t;
  let steps = 3 in
  let scrip_t = wall (fun () -> for _ = 1 to steps do B.Scrip_soa.step ~pool t done) /. float_of_int steps in
  let gp = { (B.Gnutella.default_params ~users:n) with B.Gnutella.queries = n } in
  let gnut_t = wall (fun () -> ignore (B.Gnutella_soa.simulate ~jobs ~shards:64 (B.Prng.create 7) gp)) in
  let tab =
    B.Tab.create ~title:"SoA engines at n = 10^6" [ "kernel"; "wall"; "throughput" ]
  in
  B.Tab.add_row tab
    [
      "scrip/soa-1e6-step";
      Printf.sprintf "%.1f ms" (scrip_t *. 1e3);
      Printf.sprintf "%.1f M agent-requests/s" (float_of_int n /. scrip_t /. 1e6);
    ];
  B.Tab.add_row tab
    [
      "p2p/gnutella-1e6-step";
      Printf.sprintf "%.1f ms" (gnut_t *. 1e3);
      Printf.sprintf "%.1f M queries/s" (float_of_int n /. gnut_t /. 1e6);
    ];
  B.Tab.print tab;
  [
    ("scrip/soa-1e6-step", (if jobs = 1 then "serial" else "parallel"), jobs, scrip_t);
    ("p2p/gnutella-1e6-step", (if jobs = 1 then "serial" else "parallel"), jobs, gnut_t);
  ]

(* Wall-clock for the full-tree lint pass, so BENCH json tracks how much
   the determinism gate costs as the tree grows. Lint is serial by
   design (one pass, deterministic report order), hence a single row. *)
let run_lint_table () =
  match Bn_lint.Lint.find_root () with
  | None ->
    print_endline "lint: no dune-project above the benchmark runner; skipping";
    []
  | Some root ->
    let t0 = Unix.gettimeofday () in
    let report = Bn_lint.Lint.run ~root in
    let t = Unix.gettimeofday () -. t0 in
    (* The whole-program half alone — call-graph construction plus the
       effect fixpoint over the already-parsed tree — so the JSON tracks
       the cost of the cross-file analyses separately from parsing. *)
    let libs, mls = Bn_lint.Lint.parse_mls ~root in
    let t1 = Unix.gettimeofday () in
    let graph = Bn_lint.Callgraph.build ~libs mls in
    let _effects = Bn_lint.Effects.infer graph in
    let te = Unix.gettimeofday () -. t1 in
    let tab = B.Tab.create ~title:"static analysis" [ "pass"; "files"; "wall" ] in
    B.Tab.add_row tab
      [
        "lint/full-tree";
        string_of_int report.files_scanned;
        Printf.sprintf "%.1f ms" (t *. 1e3);
      ];
    B.Tab.add_row tab
      [
        "lint/effects-full-tree";
        string_of_int (List.length mls);
        Printf.sprintf "%.1f ms" (te *. 1e3);
      ];
    B.Tab.print tab;
    [ ("lint/full-tree", "serial", 1, t); ("lint/effects-full-tree", "serial", 1, te) ]

(* {1 JSON perf artifact} *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json file ~wall ~micro =
  let oc = open_out file in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"beyond-nash-bench/2\",\n";
  p "  \"git\": \"%s\",\n" (json_escape (git_describe ()));
  p "  \"jobs\": %d,\n" jobs;
  p "  \"microbench\": [\n";
  List.iteri
    (fun i (name, ns, stats) ->
      let spread =
        match stats with
        | Some (runs, p50, p99, stddev) ->
          Printf.sprintf ", \"runs\": %d, \"p50_ns\": %.3f, \"p99_ns\": %.3f, \"stddev_ns\": %.3f"
            runs p50 p99 stddev
        | None -> ""
      in
      p "    { \"name\": \"%s\", \"ns_per_run\": %.3f%s }%s\n" (json_escape name) ns spread
        (if i = List.length micro - 1 then "" else ","))
    micro;
  p "  ],\n";
  p "  \"wallclock\": [\n";
  List.iteri
    (fun i (name, mode, j, seconds) ->
      p "    { \"name\": \"%s\", \"mode\": \"%s\", \"jobs\": %d, \"seconds\": %.6f }%s\n"
        (json_escape name) mode j seconds
        (if i = List.length wall - 1 then "" else ","))
    wall;
  p "  ]\n";
  p "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" file

let () =
  if not quick then experiments ();
  let wall = run_speedup_table () @ run_soa_table () @ run_lint_table () in
  let micro = run_microbenches () in
  Option.iter (fun file -> write_json file ~wall ~micro) json_file
