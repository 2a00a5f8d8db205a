(** Nash equilibrium: checking and solving.

    The checker works on any finite n-player game; the solvers cover pure
    equilibria (any n) and mixed equilibria of two-player games via support
    enumeration. *)

val best_response_value : Normal_form.t -> Mixed.profile -> player:int -> float
(** Highest expected payoff [player] can get with any (pure, hence any)
    strategy while the others follow the profile. *)

val pure_best_responses : Normal_form.t -> Mixed.profile -> player:int -> int list
(** Pure actions attaining {!best_response_value} (up to 1e-9). *)

val regret : Normal_form.t -> Mixed.profile -> player:int -> float
(** [best_response_value − expected_payoff]; non-negative, 0 iff the
    player's strategy is a best response. *)

val max_regret : Normal_form.t -> Mixed.profile -> float
(** Maximum regret over all players. Two-player games evaluate on the flat
    kernel ({!Normal_form.Flat}); results are bitwise-identical to
    {!max_regret_naive}. *)

val max_regret_naive : Normal_form.t -> Mixed.profile -> float
(** Reference implementation of {!max_regret}: every expected utility
    through {!Mixed.expected_payoff}. Retained as the oracle for the
    kernel-agreement property tests. *)

val is_nash : ?eps:float -> Normal_form.t -> Mixed.profile -> bool
(** Whether no player has a profitable unilateral deviation (within [eps],
    default 1e-9). *)

val is_pure_nash : ?eps:float -> Normal_form.t -> int array -> bool
(** Specialization of {!is_nash} to a pure profile. *)

val pure_equilibria : ?eps:float -> Normal_form.t -> int array list
(** All pure Nash equilibria, by exhaustive profile enumeration. *)

val support_enumeration_2p : ?eps:float -> Normal_form.t -> Mixed.profile list
(** All Nash equilibria of a two-player game found by equal-size support
    enumeration (complete for nondegenerate games), plus all pure
    equilibria. Duplicates are pruned.
    @raise Invalid_argument on games with ≠ 2 players. *)

val find_2p : ?eps:float -> Normal_form.t -> Mixed.profile option
(** First equilibrium from {!support_enumeration_2p}. *)
