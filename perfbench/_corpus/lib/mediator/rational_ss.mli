(** Rational secret sharing (Halpern–Teague 2004; paper §2 related work).

    [m]-out-of-[m] reconstruction by {e rational} players: everyone prefers
    learning the secret, and (strictly) prefers that fewer others learn it.
    In the one-shot simultaneous-exchange game, withholding your share
    weakly dominates sending it — so no deterministic protocol with a known
    last round can work (the Halpern–Teague impossibility; the same force
    behind the paper's "cannot be implemented … with bounded running time").

    The randomized fix: rounds are {e real} with probability [alpha] (shares
    of the true secret are dealt) and {e fake} otherwise; players exchange;
    any defection on a fake round is detected when reconstruction fails to
    match the dealer's check value, and the others abort forever. A
    defector therefore gambles: with probability [alpha] it learns alone
    (gain [exclusivity]); with probability 1 − [alpha] it is caught and
    never learns (loses the learning payoff of 1). With n players the
    lone-learner bonus is [(n−1)·exclusivity], so honesty is an equilibrium
    iff [alpha ≤ learn / (learn + (n−1)·exclusivity)], and the protocol
    ends in a geometric number of rounds — finite expected, unbounded
    worst-case. *)

type utility = {
  learn : float;  (** Payoff for learning the secret (paper: 1). *)
  exclusivity : float;
      (** Extra payoff per other player who does {e not} learn. *)
}

val default_utility : utility
(** learn = 1, exclusivity = 0.5. *)

val honest_equilibrium_alpha : utility -> n:int -> float
(** The largest [alpha] for which following the protocol is a Nash
    equilibrium: [learn / (learn + (n−1)·exclusivity)]. *)

val deviation_gain : utility -> n:int -> alpha:float -> float
(** Expected gain of the withhold-always deviation over honesty (positive
    = profitable): [alpha·(n−1)·exclusivity − (1 − alpha)·learn]. *)

val expected_rounds : alpha:float -> float
(** 1 / alpha. *)

type outcome = {
  rounds : int;  (** Rounds actually played. *)
  learned : bool array;  (** Who learned the secret. *)
  utilities : float array;
  aborted : bool;  (** Whether the punish-forever abort fired. *)
}

val simulate :
  Bn_util.Prng.t -> n:int -> alpha:float -> utility:utility ->
  withholder:int option -> secret:int -> outcome
(** Runs the protocol over the Shamir substrate ({!Bn_crypto.Shamir}):
    n-out-of-n sharing per round, real with probability [alpha].
    [withholder = Some i] makes player [i] withhold every round. *)

val empirical_deviation_gain :
  ?pool:Bn_util.Pool.t ->
  Bn_util.Prng.t -> n:int -> alpha:float -> utility:utility -> trials:int -> float
(** Monte-Carlo estimate of {!deviation_gain} from simulation. Trials run
    on [pool] (default serial); trial [i] draws from [Prng.split rng i],
    so the estimate does not depend on the pool size. *)
