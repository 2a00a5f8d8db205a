(** Schedule exploration: run many seeded random fault schedules against a
    system under test, check user-supplied invariants, and shrink any
    violating schedule to a (locally) minimal counterexample.

    Determinism contract: trial [i] of [explore ~seed] draws its schedule
    from [Prng.split (Prng.create seed) i], and trials are mapped over a
    {!Bn_util.Pool} by index ({!Bn_util.Pool.map_array_steal}: stealing
    rebalances which domain runs a trial — violating trials shrink and so
    cost far more than clean ones — but never which slot its result fills),
    so the report — verdicts, violating trials, schedules and shrunk
    counterexamples — is bit-identical for any [-j] and across runs with
    the same seed. Replaying a violation therefore
    needs only [(seed, trial)]; {!transcript} prints exactly that. *)

module Obs = Bn_obs.Obs

(* All trials run (the pool map has no early exit) and shrinking is a
   sequential greedy loop per violation, so every explorer counter is
   deterministic in (seed, trials) — the values are part of the golden
   metrics snapshot in test_obs. *)
let c_schedules = Obs.counter "explore.schedules"
let c_violations = Obs.counter "explore.violations"
let c_shrink_evals = Obs.counter "explore.shrink_evals"

(* Per-violation shrink cost is a pure function of the workload (the
   shrinker is deterministic), so its distribution is a Det sketch; the
   per-trial wall time is scheduling-dependent and Volatile. *)
let sk_shrink_evals = Obs.sketch ~kind:Obs.Det "explore.shrink_evals_per_violation"
let sk_trial_ns = Obs.sketch ~kind:Obs.Volatile "explore.trial_ns"

type 'r system = {
  run : Faults.schedule -> 'r;
      (** Execute the system under one fault schedule. Must be
          deterministic: same schedule, same result. *)
  invariants : (string * (Faults.schedule -> 'r -> bool)) list;
      (** Named predicates; the schedule is passed so checks can
          {!Faults.mask} the culprits' outputs. *)
}

type violation = {
  trial : int;  (** index of the violating trial *)
  schedule : Faults.schedule;  (** schedule as drawn *)
  failed : string list;  (** invariants it breaks *)
  shrunk : Faults.schedule;  (** greedily minimized counterexample *)
  shrunk_failed : string list;  (** invariants the shrunk schedule breaks *)
  shrink_evals : int;
      (** candidate schedules evaluated while shrinking this violation —
          the (previously invisible) cost of minimization *)
}

type report = {
  seed : int;
  trials : int;
  violations : violation list;  (** in trial order *)
}

let failures sys schedule =
  let r = sys.run schedule in
  List.filter_map (fun (name, check) -> if check schedule r then None else Some name) sys.invariants

(* Greedy shrinking: repeatedly delete the first single event — then, at a
   fixpoint, the first pair of events — whose removal preserves {e some}
   invariant violation (not necessarily the original one: any
   counterexample is a counterexample). Terminates because each step
   strictly shrinks the schedule; the pair pass escapes plateaus where two
   events are individually redundant but jointly load-bearing. *)
let shrink sys schedule =
  (* [evals] counts candidate evaluations — the dominant cost of
     shrinking — and is returned alongside the minimized schedule. *)
  let evals = ref 0 in
  let still_violates s =
    incr evals;
    failures sys s <> []
  in
  let without iys s = List.filteri (fun j _ -> not (List.mem j iys)) s in
  let rec go s =
    let k = List.length s in
    let rec try_singles i =
      if i >= k then None
      else
        let candidate = without [ i ] s in
        if still_violates candidate then Some candidate else try_singles (i + 1)
    in
    let try_pairs () =
      let rec outer i =
        if i >= k then None
        else
          let rec inner j =
            if j >= k then outer (i + 1)
            else
              let candidate = without [ i; j ] s in
              if still_violates candidate then Some candidate else inner (j + 1)
          in
          inner (i + 1)
      in
      outer 0
    in
    match try_singles 0 with
    | Some smaller -> go smaller
    | None -> ( match try_pairs () with Some smaller -> go smaller | None -> s)
  in
  let shrunk = go schedule in
  Obs.add c_shrink_evals !evals;
  (shrunk, !evals)

let explore ?(pool = Bn_util.Pool.serial) ~seed ~trials ~gen sys =
  if trials <= 0 then invalid_arg "Explore.explore: need trials > 0";
  let base = Bn_util.Prng.create seed in
  let outcomes =
    Bn_util.Pool.map_array_steal pool
      (fun trial ->
        Obs.incr c_schedules;
        Obs.span "explore.trial" ~args:(fun () -> [ ("trial", Obs.I trial); ("seed", Obs.I seed) ])
        @@ fun () ->
        Obs.timed sk_trial_ns
        @@ fun () ->
        let rng = Bn_util.Prng.split base trial in
        let schedule = gen rng in
        match failures sys schedule with
        | [] -> None
        | failed ->
          Obs.incr c_violations;
          let shrunk, shrink_evals = shrink sys schedule in
          Obs.observe_sk sk_shrink_evals shrink_evals;
          Some
            { trial; schedule; failed; shrunk; shrunk_failed = failures sys shrunk; shrink_evals })
      (Array.init trials Fun.id)
  in
  { seed; trials; violations = List.filter_map Fun.id (Array.to_list outcomes) }

(* {1 Replayable transcripts} *)

let transcript ~name report =
  let b = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  p "explore %s: seed=%d trials=%d violations=%d\n" name report.seed report.trials
    (List.length report.violations);
  (match report.violations with
  | [] -> p "  every schedule satisfied every invariant\n"
  | v :: _ ->
    p "  first violation: trial=%d failed=[%s]\n" v.trial (String.concat ", " v.failed);
    p "  schedule: %s\n" (Faults.schedule_to_string v.schedule);
    p "  shrunk (%d event%s): %s  failed=[%s]\n"
      (List.length v.shrunk)
      (if List.length v.shrunk = 1 then "" else "s")
      (Faults.schedule_to_string v.shrunk)
      (String.concat ", " v.shrunk_failed);
    p "  replay: --explore %d --seed %d  (trial %d)\n" report.trials report.seed v.trial);
  Buffer.contents b

let min_shrunk_size report =
  List.fold_left
    (fun acc v -> min acc (List.length v.shrunk))
    max_int report.violations
