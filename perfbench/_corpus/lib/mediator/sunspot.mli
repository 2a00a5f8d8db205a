(** Sunspot (public-randomization) equilibria — what cheap talk can do
    {e without} meeting the mediator thresholds.

    With commit–reveal coin flipping ({!Bn_crypto.Coin_flip}) two players
    can jointly sample {e public} randomness and condition play on it. That
    implements exactly the convex combinations of Nash equilibria — but not
    general correlated equilibria, whose recommendations must stay private.
    The welfare gap between the best sunspot and the best correlated
    equilibrium (E13) is the quantitative value of a genuine mediator, and
    two players sit precisely in the paper's impossible regime
    (n = 2 ≤ 2k + 2t for (k,t) = (1,0)). *)

type t = {
  weights : float list;  (** Convex weights, one per equilibrium. *)
  equilibria : Bn_game.Mixed.profile list;
}

val make : (float * Bn_game.Mixed.profile) list -> t
(** Normalizes weights.
    @raise Invalid_argument on empty input or non-positive total. *)

val is_valid : ?eps:float -> Bn_game.Normal_form.t -> t -> bool
(** Every component must be a Nash equilibrium (obedience to a public
    signal is exactly Nash obedience component-wise). *)

val expected_payoffs : Bn_game.Normal_form.t -> t -> float array

val best_sunspot_welfare : Bn_game.Normal_form.t -> float
(** Max total welfare over Nash equilibria (the best convex combination is
    a vertex), via {!Bn_game.Nash.support_enumeration_2p}. *)

val mediator_gap : Bn_game.Normal_form.t -> float
(** Welfare of the best correlated equilibrium minus
    {!best_sunspot_welfare}: how much payoff requires {e private}
    mediation. Non-negative. *)

val sample_and_play :
  Bn_util.Prng.t -> Bn_game.Normal_form.t -> t -> int array * float array
(** One run: commit-reveal coins pick the component (public), both players
    then sample their (possibly mixed) component strategies; returns the
    realized action profile and payoffs. *)
