(** Correlated equilibrium.

    A mediator in a complete-information game is exactly a correlation
    device: it draws a profile from a public distribution and privately
    recommends each player its component. The distribution is a correlated
    equilibrium when following recommendations is optimal. This is the
    benchmark object the §2 cheap-talk machinery implements, and it can
    achieve payoffs outside the convex hull of Nash equilibria (e.g. in
    chicken). *)

val is_correlated_equilibrium :
  ?eps:float -> Normal_form.t -> int array Bn_util.Dist.t -> bool
(** Checks the obedience constraints: for every player [i] and every
    recommended action [a] of positive probability, no deviation [a']
    improves [i]'s conditional expected payoff. *)

val max_welfare : Normal_form.t -> (int array Bn_util.Dist.t * float) option
(** The correlated equilibrium maximizing the sum of payoffs, by linear
    programming over profile distributions. [None] only on LP failure
    (cannot happen for finite games: Nash equilibria are correlated
    equilibria, so the polytope is non-empty). Returns the distribution and
    the total welfare. *)

val max_player : Normal_form.t -> player:int -> (int array Bn_util.Dist.t * float) option
(** The correlated equilibrium maximizing one player's expected payoff. *)

val of_mixed : Normal_form.t -> Mixed.profile -> int array Bn_util.Dist.t
(** The product distribution of a mixed profile — a correlated equilibrium
    whenever the profile is Nash. *)
