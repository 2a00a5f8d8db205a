(** Asynchronous cheap-talk mediator simulation (arXiv:1806.01214).

    The synchronous constructions of §2 lean on rounds; Abraham, Dolev,
    Geffner and Halpern show that over an asynchronous network a
    (k,t)-robust mediator is implementable by cheap talk iff
    [n > 4(k+t)]. This module makes the threshold executable on
    {!Bn_dist_sim.Async_net}:

    - the dealer (process 0, the mediator's interface) Shamir-shares its
      recommendation with polynomial degree [f = k+t] and sends each party
      its share; parties relay their share to everyone;
    - a party may only wait for [n - f] shares ([f] parties may stay
      silent forever in an asynchronous network), then decodes with
      Berlekamp–Welch tolerating [f] corrupted shares, which needs at
      least [3f + 1] shares — so decoding from the waitable pool is
      guaranteed iff [n - f ≥ 3f + 1], i.e. [n > 4f].

    The two impossibility regimes are witnessed differently by {!Explore}
    schedule search ({!system}): for [3f < n ≤ 4f] a violation needs
    [n - 3f] silenced parties (the locally minimal shrunk counterexample);
    for [n ≤ 3f] the empty schedule already violates totality. There is no
    round structure anywhere: reordering, starvation and message loss come
    from {!Bn_dist_sim.Faults.async_scheduler} and
    {!Bn_dist_sim.Faults.async_plan}, and every run is deterministic in
    the schedule, so reports are bit-identical for any [-j]. *)

val fault_bound : k:int -> t:int -> int
(** [k + t] — the sharing degree and the silence/corruption budget. *)

val decode_guaranteed : n:int -> f:int -> bool
(** [n - f ≥ 3f + 1]: the waitable pool meets the Berlekamp–Welch bound.
    Equivalent to {!Bn_mediator.Feasibility.classify_async} returning
    [Async_implementable] at [f = k + t]. *)

val stall_witness_size : n:int -> k:int -> t:int -> int
(** [max 0 (n - 3(k+t))] — silences needed to stall an honest decoder,
    hence the expected size of a locally-minimal shrunk counterexample
    (0 in the fault-free-impossible regime). *)

type msg = Share of Bn_crypto.Shamir.share | Relay of Bn_crypto.Shamir.share

type state
(** Per-party protocol state (share pool + decoded value). *)

val process :
  n:int -> k:int -> t:int -> general_type:int -> (state, msg) Bn_dist_sim.Async_net.process
(** The dissemination protocol; the dealer's sharing randomness is derived
    from the cell parameters so runs are schedule-deterministic.
    @raise Invalid_argument unless [n ≥ 2] and [k + t < n]. *)

val run :
  ?max_steps:int ->
  ?scheduler:msg Bn_dist_sim.Async_net.scheduler ->
  ?faults:msg Bn_dist_sim.Async_net.fault_filter ->
  n:int -> k:int -> t:int -> general_type:int ->
  unit ->
  int Bn_dist_sim.Async_net.result
(** One simulation (default scheduler: FIFO). A decision is the decoded
    recommendation; [None] = stalled. *)

(** {1 Schedule exploration} *)

val sanitize : Bn_dist_sim.Faults.schedule -> Bn_dist_sim.Faults.schedule
(** Drops events blaming the dealer (process 0): a faulty dealer trivially
    breaks every cell, so grid schedules never blame it. *)

val run_schedule :
  n:int -> k:int -> t:int -> general_type:int ->
  Bn_dist_sim.Faults.schedule ->
  int Bn_dist_sim.Async_net.result
(** Runs the protocol under the sanitized schedule's asynchronous reading:
    {!Bn_dist_sim.Faults.async_scheduler} for starvation,
    {!Bn_dist_sim.Faults.async_plan} for loss/duplication/corruption. *)

val system :
  n:int -> k:int -> t:int -> general_type:int ->
  int Bn_dist_sim.Async_net.result Bn_dist_sim.Explore.system
(** Invariants over non-culprit parties — totality (all decide), agreement
    (same value), validity (the dealer's recommendation). Vacuous when the
    sanitized schedule blames more than [k + t] processes. *)

val explore :
  ?pool:Bn_util.Pool.t ->
  seed:int -> trials:int ->
  gen:(Bn_util.Prng.t -> Bn_dist_sim.Faults.schedule) ->
  n:int -> k:int -> t:int -> general_type:int ->
  unit ->
  Bn_dist_sim.Explore.report
(** {!Bn_dist_sim.Explore.explore} over [sanitize ∘ gen] against
    {!system}. *)
