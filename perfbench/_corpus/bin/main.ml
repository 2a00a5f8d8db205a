(* Command-line interface: run the paper-reproduction experiments and small
   interactive analyses. *)

module B = Beyond_nash
open Cmdliner

let list_cmd =
  let run () =
    List.iter
      (fun (name, title, _) -> Printf.printf "%-4s %s\n" name title)
      Bn_experiments.Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the experiments (E1-E17).") Term.(const run $ const ())

let jobs_arg =
  Arg.(
    value
    & opt int (B.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run parallel loops on $(docv) domains (default: the hardware's \
           recommended domain count). Output is bit-identical for every $(docv).")

(* Observability flags, shared by `exp`, `all` and the fault-injection
   default command. Without any of them the process output is
   byte-identical to the uninstrumented CLI: counters tick silently,
   spans are not even recorded. *)
let obs_args =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record spans (experiments, Pool chunks, Robust searches, Sync_net rounds, \
             Explore schedules, fault instants) and write Chrome trace-event JSON to \
             $(docv) — load it in chrome://tracing or Perfetto.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write a flat JSON metrics snapshot to $(docv). Its \"counters\" section is \
             deterministic: byte-identical for any -j and across same-seed reruns.")
  in
  let summary =
    Arg.(
      value & flag
      & info [ "obs-summary" ]
          ~doc:"Print a human observability summary (span tree, top counters) after the run.")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:"Print one stderr line per completed experiment (name, wall ms, span count).")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Print a span-tree profile after the run: calls, inclusive and exclusive \
             (self) wall ms per span path, plus per-region GC deltas (allocated words, \
             major/minor collections).")
  in
  let folded =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write a collapsed-stack profile (one `a;b;c microseconds' line per span \
             path) to $(docv) — pipe through flamegraph.pl for an SVG flame graph.")
  in
  Term.(
    const (fun trace metrics summary progress profile folded ->
        (trace, metrics, summary, progress, profile, folded))
    $ trace $ metrics $ summary $ progress $ profile $ folded)

let with_obs (trace, metrics, summary, progress, profile, folded) f =
  if trace <> None || summary || profile || folded <> None then B.Obs.set_tracing true;
  (* Wall-clock sketches piggyback on any observability request; with no
     flags they stay off so the uninstrumented CLI keeps its speed. *)
  if trace <> None || metrics <> None || summary || profile || folded <> None then
    B.Obs.set_timing true;
  if profile then B.Obs.set_gc_probes true;
  B.Obs.set_progress progress;
  let r = f () in
  let write file contents =
    let oc = open_out file in
    output_string oc contents;
    close_out oc;
    Printf.eprintf "wrote %s\n%!" file
  in
  Option.iter (fun file -> write file (B.Obs.Export.chrome_trace ())) trace;
  Option.iter (fun file -> write file (B.Obs.Export.metrics_json ())) metrics;
  Option.iter (fun file -> write file (B.Obs.Profile.folded ())) folded;
  if summary then print_string (B.Obs.summary ());
  if profile then print_string (B.Obs.Profile.table ());
  r

let exp_cmd =
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id (e.g. E3).") in
  let run id jobs obs =
    with_obs obs (fun () ->
        match Bn_experiments.Experiments.render ~jobs id with
        | Some transcript ->
          print_string transcript;
          `Ok ()
        | None -> `Error (false, Printf.sprintf "unknown experiment %S; try `list`" id))
  in
  Cmd.v (Cmd.info "exp" ~doc:"Run one experiment.") Term.(ret (const run $ id $ jobs_arg $ obs_args))

let all_cmd =
  let run jobs obs = with_obs obs (fun () -> Bn_experiments.Experiments.run_all ~jobs ()) in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment (same output as bench/main.exe minus microbenches).")
    Term.(const run $ jobs_arg $ obs_args)

let classify_cmd =
  let n = Arg.(required & pos 0 (some int) None & info [] ~docv:"N" ~doc:"Number of players.") in
  let k = Arg.(required & pos 1 (some int) None & info [] ~docv:"K" ~doc:"Coalition bound.") in
  let t = Arg.(required & pos 2 (some int) None & info [] ~docv:"T" ~doc:"Fault bound.") in
  let broadcast = Arg.(value & flag & info [ "broadcast" ] ~doc:"Broadcast channels available.") in
  let crypto = Arg.(value & flag & info [ "crypto" ] ~doc:"Cryptography + bounded players.") in
  let pki = Arg.(value & flag & info [ "pki" ] ~doc:"Public-key infrastructure.") in
  let punishment = Arg.(value & flag & info [ "punishment" ] ~doc:"A (k+t)-punishment strategy exists.") in
  let utilities = Arg.(value & flag & info [ "utilities" ] ~doc:"Utilities are known to the protocol.") in
  let run n k t broadcast crypto pki punishment utilities_known =
    let a = { B.Feasibility.utilities_known; punishment; broadcast; crypto; pki } in
    match B.Feasibility.classify ~n ~k ~t a with
    | v ->
      Printf.printf "%s\n" (B.Feasibility.describe v);
      (match v with
      | B.Feasibility.Implementable { bullet; _ } | B.Feasibility.Impossible { bullet; _ } ->
        Printf.printf "  via: %s\n" (B.Feasibility.bullet_text bullet))
    | exception Invalid_argument msg -> Printf.printf "error: %s\n" msg
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Classify a mediator-implementation regime (the ADGH bullets).")
    Term.(const run $ n $ k $ t $ broadcast $ crypto $ pki $ punishment $ utilities)

let solve_cmd =
  let spec =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"BIMATRIX" ~doc:"Game, e.g. \"3,3 0,5 | 5,0 1,1\" (rows |, cells space, payoffs comma).")
  in
  let run spec =
    match B.Parse.bimatrix_opt spec with
    | None -> `Error (false, "could not parse the bimatrix; example: \"3,3 0,5 | 5,0 1,1\"")
    | Some g ->
      Format.printf "game:@.%a@." B.Normal_form.pp g;
      let pure = B.Nash.pure_equilibria g in
      List.iter
        (fun p -> Printf.printf "pure Nash equilibrium: (row %d, col %d)\n" p.(0) p.(1))
        pure;
      List.iter
        (fun prof -> Format.printf "equilibrium: %a@." B.Mixed.pp_profile prof)
        (B.Nash.support_enumeration_2p g);
      (match B.Correlated.max_welfare g with
      | Some (_, w) -> Printf.printf "max-welfare correlated equilibrium value: %.4f\n" w
      | None -> ());
      let surviving = B.Rationalizable.rationalizable g in
      Printf.printf "rationalizable actions: rows {%s}, cols {%s}\n"
        (String.concat "," (List.map string_of_int surviving.(0)))
        (String.concat "," (List.map string_of_int surviving.(1)));
      `Ok ()
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve a 2-player bimatrix game (Nash, correlated, rationalizability).")
    Term.(ret (const run $ spec))

(* Fault injection / schedule exploration, exposed as top-level options so
   `main.exe --explore 200 --seed 42` replays are copy-pasteable from the
   explorer's transcripts. Output is byte-identical across runs and for
   any -j. *)
let explore_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "explore" ] ~docv:"N"
        ~doc:
          "Run the fault-schedule exploration sweep: $(docv) seeded random fault \
           schedules per protocol config, checking agreement/validity invariants and \
           shrinking every violation to a minimal counterexample.")

let faults_arg =
  Arg.(
    value & flag
    & info [ "faults" ]
        ~doc:"Inject one seeded random fault schedule into EIG and show its effect.")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Base seed for --explore/--faults; trial $(i,i) draws from split stream $(i,i).")

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Restrict --explore to the small (CI smoke) config subset.")

let mediator_sweep_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "mediator-sweep" ] ~docv:"N"
        ~doc:
          "Run the asynchronous-mediator regime sweep: classify the (n,k,t) grid \
           (synchronous bullets and the asynchronous $(b,n > 4(k+t)) threshold), \
           cross-check with the k-resilient sequential-equilibrium checker, and \
           explore $(docv) seeded schedules per cell — zero violations expected on \
           the possibility side, a shrunk replayable counterexample on the \
           impossibility side.")

let e17_arg =
  Arg.(
    value & flag
    & info [ "e17" ]
        ~doc:
          "Run the million-agent SoA sweep (experiment E17): scrip steady-state \
           goodness of fit, the mixed hoarder/altruist population, Gnutella free \
           riding at scale, and the best-response cutoff ladder. Combine with \
           --scrip-n to raise the population ceiling.")

let scrip_n_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "scrip-n" ] ~docv:"N"
        ~doc:
          "With --e17, the largest population size to run (default 100000; the \
           paper-scale run uses 1000000). Ladder sizes are the powers of ten up to \
           $(docv).")

let sweep_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sweep-json" ] ~docv:"FILE"
        ~doc:
          "With --mediator-sweep, also write the sweep as a JSON artifact \
           (schema mediator-sweep/1) to $(docv).")

let all_arg =
  Arg.(
    value & flag
    & info [ "all" ]
        ~doc:
          "Run every experiment (E1-E17), like the `all' subcommand; as a top-level \
           flag so it combines with --profile/--folded/--metrics in one invocation.")

let default_term =
  let run all explore faults seed quick mediator sweep_json e17 scrip_n jobs obs =
    match (all, explore, faults, mediator, e17) with
    | false, None, false, None, false -> `Help (`Pager, None)
    | _ ->
      with_obs obs (fun () ->
          if all then Bn_experiments.Experiments.run_all ~jobs ();
          if faults then Bn_experiments.Fault_sweep.demo ~seed ();
          Option.iter
            (fun trials -> Bn_experiments.Fault_sweep.render ~jobs ~quick ~trials ~seed ())
            explore;
          Option.iter
            (fun trials ->
              Bn_experiments.Mediator_sweep.render ~jobs ~trials ~seed ();
              Option.iter
                (fun file ->
                  let oc = open_out file in
                  output_string oc (Bn_experiments.Mediator_sweep.sweep_json ~jobs ~trials ~seed ());
                  close_out oc;
                  Printf.eprintf "wrote %s\n%!" file)
                sweep_json)
            mediator;
          if e17 then
            Bn_experiments.Scrip_sweep.render ~jobs ?n_max:scrip_n ~seed ();
          `Ok ())
  in
  Term.(
    ret
      (const run $ all_arg $ explore_arg $ faults_arg $ seed_arg $ quick_arg $ mediator_sweep_arg
     $ sweep_json_arg $ e17_arg $ scrip_n_arg $ jobs_arg $ obs_args))

let main =
  let doc = "Reproduction of Halpern's `Beyond Nash Equilibrium' (PODC 2008)." in
  Cmd.group
    (Cmd.info "beyond-nash" ~version:"1.0.0" ~doc)
    ~default:default_term
    [ list_cmd; exp_cmd; all_cmd; classify_cmd; solve_cmd ]

let () = exit (Cmd.eval main)
