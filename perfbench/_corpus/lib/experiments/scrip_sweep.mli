(** The computational content of E17: million-agent scrip and Gnutella
    simulations on the SoA store, verified against the analytic steady
    state.

    Four sections, each a deterministic table (byte-identical at any
    [?jobs]):

    + a chi-square / total-variation goodness-of-fit ladder for the
      sharded scrip engine against {!Beyond_nash.Steady_state.max_entropy}
      at n = 10³ … [n_max];
    + a mixed population (standard / hoarder / altruist) showing the
      paper's §5 monetary effects: hoarder accumulation in the overflow
      bin and the induced starvation of standard agents;
    + Gnutella free riding at scale (free-rider fraction, top-1% /
      top-10% response share, Gini) on the sharded engine;
    + the empirical best-response kick cutoff: with payoff
      [κ − cost] per share, the estimator [argmax over a cutoff grid of
      the mean sampled utility] converges to the dominant-strategy
      cutoff [κ* = cost] as the population grows. *)

type gof_row = {
  n : int;
  steps : int;
  gof : Beyond_nash.Steady_state.gof;
  mean_balance : float;
}

val ladder : n_max:int -> int list
(** The population sizes exercised: powers of ten from 10³ to [n_max]. *)

val gof_ladder : ?jobs:int -> ?n_max:int -> seed:int -> unit -> gof_row list
(** One sharded scrip run per ladder size (threshold 5, 2.5 units per
    agent, 64 shards) and its fit against the analytic law. *)

val br_cutoff : seed:int -> n:int -> cost:float -> float * float
(** [(tau_hat, regret)]: the cutoff on an 11-point grid around [cost]
    maximizing the mean empirical share utility over [n] sampled kicks,
    and the closed-form expected utility loss of playing [tau_hat]
    instead of the dominant cutoff [cost] under the Pareto kick law.
    [regret] → 0 and [tau_hat] → [cost] as [n] grows. *)

val render : ?jobs:int -> ?n_max:int -> ?seed:int -> unit -> unit
(** Print all four sections through {!Bn_util.Out}. [n_max] defaults to
    10⁵ (the [dune runtest] budget); [bin/main.exe --e17 --scrip-n
    1000000] raises it to the paper-scale run. *)
