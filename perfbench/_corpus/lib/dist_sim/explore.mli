(** Schedule exploration: run many seeded random fault schedules against a
    system under test, check user-supplied invariants, and shrink any
    violating schedule to a (locally) minimal counterexample.

    Determinism contract: trial [i] of [explore ~seed] draws its schedule
    from [Prng.split (Prng.create seed) i], and trials are mapped over a
    {!Bn_util.Pool} by index, so the report — verdicts, violating trials,
    schedules and shrunk counterexamples — is bit-identical for any [-j]
    and across runs with the same seed. Replaying a violation therefore
    needs only [(seed, trial)]; {!transcript} prints exactly that. *)

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

val failures : 'r system -> Faults.schedule -> string list
(** Names of the invariants the schedule breaks (one run of the system). *)

val explore :
  ?pool:Bn_util.Pool.t -> seed:int -> trials:int -> gen:(Bn_util.Prng.t -> Faults.schedule) ->
  'r system -> report
(** Run [trials] seeded schedules, shrink each violation greedily
    (singles, then pairs, to a fixpoint). Raises [Invalid_argument] on
    [trials <= 0]. *)

val transcript : name:string -> report -> string
(** Human summary of the first violation with its replay line. *)

val min_shrunk_size : report -> int
(** Smallest shrunk-counterexample length, [max_int] when no violation. *)
