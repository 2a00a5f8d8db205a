(** Mediator regime sweep: the (n,k,t) grid classified synchronously (the
    nine bullets), asynchronously ([n > 4(k+t)]), cross-checked by the
    k-resilient sequential-equilibrium checker, and witnessed by Explore
    schedule search — no violation on the possibility side, a shrunk
    locally-minimal counterexample on the impossibility side. Rendered by
    E16 and [bin/main.exe --mediator-sweep]; deterministic in
    (seed, trials) for any [-j]. *)

type cell = {
  n : int;
  k : int;
  t : int;
  gen : Beyond_nash.Prng.t -> Beyond_nash.Faults.schedule;
}

val cells : cell list
(** Six cells bracketing the asynchronous threshold at f = 1 and f = 2:
    (5,1,0) | (4,1,0) | (3,1,0) and (9,1,1) | (8,1,1) | (6,1,1). *)

val cell_name : cell -> string

val explore_cell :
  ?pool:Beyond_nash.Pool.t -> seed:int -> trials:int -> cell -> Beyond_nash.Explore.report
(** Seeded schedule search against the cell's asynchronous protocol. *)

val expected : cell -> Beyond_nash.Feasibility.async_verdict

val verdict : cell -> Beyond_nash.Explore.report -> string
(** "OK (robust)" / "OK (counterexample found)" / the two failure modes. *)

val sequential_rows : cell -> bool * bool * bool * bool
(** [(stall_eq, stall_matches, punish_eq, punish_matches)]: the two canned
    games' sequential verdicts and whether each agrees with its
    classification (async threshold, 2k+2t broadcast threshold). *)

val explore_async_n4k1t0 :
  ?pool:Beyond_nash.Pool.t -> seed:int -> trials:int -> unit -> Beyond_nash.Explore.report
(** The smallest impossibility cell (n = 4, k = 1, t = 0: find + shrink)
    as a single timed kernel — the bench harness entry point. *)

val render : ?jobs:int -> trials:int -> seed:int -> unit -> unit
(** Three tables (regime grid, sequential checks, exploration verdicts)
    plus a replayable transcript per violating cell, through
    {!Bn_util.Out}. *)

val sweep_json : ?jobs:int -> trials:int -> seed:int -> unit -> string
(** The sweep as a JSON artifact (schema ["mediator-sweep/1"]); the CI
    smoke step validates it with [jq]. *)
