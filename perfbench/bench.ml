(* The benchmark's entry point:

     bench.exe --workload paper|solve|robust|lint --seed N --seconds S --trace 0|1

   Set-up (input generation, corpus load, a warm-up) is timed from
   process start; then ops run in a closed loop, one client on one domain,
   over whole passes of the workload's inputs: as many passes as took
   about S seconds when the benchmark was frozen, so that every run
   measures the same work whatever the host's speed of the moment; a
   failed input is not run again. Op times are scaled to the speed of a
   frozen reference (Speed_ref). With
   --trace 0 the last stdout line is a JSON object carrying the
   end-to-end metrics; with --trace 1 the loop runs once untraced and
   once with Obs tracing, timing and GC probes on, and the JSON carries
   the per-layer metrics. The lines before it are the same figures for a
   human, with every failed op and its reason. *)

open Perfbench
module Obs = Bn_obs.Obs

let started = Unix.gettimeofday ()

module type WORKLOAD = sig
  type inputs

  val pass_s : float
  (** wall time of one pass over the inputs when the benchmark was frozen *)

  val known_failures : (string * Harness.outcome) list
  (** labels of ops that fail through a recorded, known defect, with
      their recorded outcome *)

  val load : seed:int -> inputs
  val warm_up : inputs -> Harness.sample list
  (** the untimed ops of the set-up, if any *)

  val pass : Harness.probe -> inputs -> (string * (unit -> Harness.outcome)) array
  val layers : (string -> Harness.acc option) -> Harness.summary -> (string * float) list
end

let workloads : (string * (module WORKLOAD)) list =
  [ ("paper", (module Wl_paper)); ("solve", (module Wl_solve)); ("robust", (module Wl_robust)); ("lint", (module Wl_lint)) ]

let end_to_end_units =
  [
    ("setup_s", "s");
    ("ok_ops_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("cpu_per_op_ms", "ms");
    ("alloc_mw_per_op", "Mwords");
    ("ok_frac", "frac");
    ("peak_rss_mb", "MB");
  ]

(* Every per-layer metric, reported by every traced run: a layer the
   workload does not reach reads 0. *)
let per_layer_units =
  List.concat_map
    (fun (id, _) -> [ ("experiments." ^ id ^ "_s", "s"); ("experiments." ^ id ^ "_alloc_mw", "Mwords") ])
    Recorded.paper
  @ [
      ("scrip_soa.step_calls", "count/op");
      ("scrip_soa.step_ms", "ms");
      ("scrip_soa.step_self_ms", "ms");
      ("scrip_soa.step_alloc_mw", "Mwords");
      ("scrip_soa.requests", "count/op");
      ("gnutella_soa.queries", "count/op");
      ("pool.chunks", "count/op");
      ("nash.pure_equilibria_ms", "ms");
      ("nash.support_enumeration_2p_ms", "ms");
      ("rationalizable.rationalizable_ms", "ms");
      ("mixed.support_profiles", "count/op");
      ("mixed.expected_payoffs", "count/op");
      ("correlated.max_welfare_ms", "ms");
      ("correlated.max_welfare_calls", "count");
      ("correlated.max_welfare_deadline", "count");
      ("correlated.max_welfare_none", "count");
      ("correlated.max_welfare_ok_ratio", "frac");
    ]
  @ List.concat_map
      (fun l -> [ (l ^ "_ms", "ms"); (l ^ "_alloc_mw", "Mwords") ])
      [ "robust.max_resilience"; "robust.max_immunity"; "robust.robust_pure_equilibria" ]
  @ [ ("robust.deviation_checks", "count/op"); ("robust.pairs_scanned", "count/op") ]
  @ List.concat_map
      (fun p -> [ ("lint." ^ p ^ "_ms", "ms"); ("lint." ^ p ^ "_alloc_mw", "Mwords") ])
      [ "parse"; "rules"; "callgraph"; "effects"; "races"; "json"; "rest" ]
  @ [
      ("lint.files", "count");
      ("lint.callgraph_edges", "count");
      ("gc.minor_per_op", "count/op");
      ("gc.major_per_op", "count/op");
      ("host.speed_factor", "frac");
      ("obs.tracing_overhead", "frac");
    ]

let print_summary name ~known (s : Harness.summary) ~passes =
  Printf.printf "%s: %d passes, %d ops attempted, %d passed, %.3f s busy, slowest passing op %.3f ms\n" name passes
    s.attempted s.passed s.busy_s s.max_ms;
  Printf.printf "  op_tail_ms is p%.1f of %d passing ops (%d beyond it); %d of %d inputs passed\n" s.tail_pct s.passed
    s.tail_beyond s.ok_inputs s.inputs;
  if s.speed <> 1. then
    Printf.printf "  host-speed factor %.4f (median over passing ops); unscaled op_p50_ms %.4f\n" s.speed s.raw_p50_ms;
  (match Harness.failure_reasons s with
  | [] -> ()
  | reasons ->
    Printf.printf "  failed ops by reason: %s\n"
      (String.concat ", " (List.map (fun (r, n) -> Printf.sprintf "%s %d" r n) reasons)));
  List.iter
    (fun (smp : Harness.sample) ->
      match smp.outcome with
      | Fail { reason; detail } ->
        Printf.printf "  failed%s: %s: %s: %s\n"
          (if Harness.known_failure ~known smp then " (known)" else " (NEW)")
          smp.label reason detail
      | Pass -> ())
    (List.sort_uniq (fun (a : Harness.sample) b -> compare a.label b.label) s.failures)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, unit, v) -> Printf.printf "  %-38s %14.6f %s\n" name v unit) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
          metrics))

let run (module W : WORKLOAD) ~name ~seed ~seconds ~trace =
  let inputs = W.load ~seed in
  let warm = W.warm_up inputs in
  let raw_setup_s = Unix.gettimeofday () -. started in
  (* The warm-up's ops are scaled to the reference host speed as the
     timed ones are; the reference's own readings are not set-up. *)
  let setup_s = raw_setup_s -. !Harness.reference_wall_s +. Harness.scaling_s warm in
  Printf.printf "workload %s, seed %d, %g s, closed loop: 1 client, 1 domain\n" name seed seconds;
  Printf.printf "  set-up: %.4f s from process start to the first timed op (%.4f s by the wall clock)\n" setup_s
    raw_setup_s;
  let passes seconds = max 1 (Float.to_int (Float.round (seconds /. W.pass_s))) in
  let loop ?(probe = Harness.off) seconds =
    let passes = passes seconds in
    (Harness.run_passes ~reference:Speed_ref.reference ~passes (W.pass probe inputs), passes)
  in
  (* The traced run splits its time between the two loops. *)
  let samples, passes = loop (if trace then seconds /. 2. else seconds) in
  let s = Harness.summarize samples in
  let known = W.known_failures in
  print_summary "untraced" ~known s ~passes;
  if not trace then begin
    let metrics =
      [
        setup_s;
        float s.passed /. s.busy_s;
        s.p50_ms;
        s.tail_ms;
        s.cpu_per_op_ms;
        s.alloc_mw_per_op;
        float s.ok_inputs /. float s.inputs;
        Harness.peak_rss_mb ();
      ]
    in
    print_result
      ~correct:(Harness.correct ~known samples)
      ~attempted:s.attempted ~failed:(s.attempted - s.passed)
      (List.map2 (fun (n, u) v -> (n, u, v)) end_to_end_units metrics)
  end
  else begin
    Obs.reset ();
    Obs.set_tracing true;
    Obs.set_timing true;
    Obs.set_gc_probes true;
    let probe, find = Harness.recording () in
    let tsamples, tpasses = loop ~probe (seconds /. 2.) in
    Obs.set_tracing false;
    Obs.set_timing false;
    Obs.set_gc_probes false;
    let t = Harness.summarize tsamples in
    print_summary "traced" ~known t ~passes:tpasses;
    let layers =
      W.layers find t
      @ [
          ("gc.minor_per_op", s.minor_gcs_per_op);
          ("gc.major_per_op", s.major_gcs_per_op);
          ("host.speed_factor", s.speed);
          ("obs.tracing_overhead", (t.p50_ms /. s.p50_ms) -. 1.);
        ]
    in
    List.iter
      (fun (n, _) -> if not (List.mem_assoc n per_layer_units) then failwith ("unlisted layer metric " ^ n))
      layers;
    let all = samples @ tsamples in
    print_result
      ~correct:(Harness.correct ~known all)
      ~attempted:(List.length all)
      ~failed:(List.length (List.filter (fun smp -> not (Harness.passed smp)) all))
      (List.map (fun (n, u) -> (n, u, Option.value (List.assoc_opt n layers) ~default:0.)) per_layer_units)
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let usage = "bench.exe --workload paper|solve|robust|lint --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  paper, solve, robust or lint");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline usage;
    exit 2
  | Some _ when !trace <> 0 && !trace <> 1 || !seconds <= 0. ->
    prerr_endline usage;
    exit 2
  | Some w -> (
    try run w ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    with e ->
      Printf.eprintf "bench: %s\n" (Printexc.to_string e);
      exit 1)
