(** Two-player zero-sum games and adversarial values.

    The zero-sum value underpins punishment strategies: the paper's
    (k+t)-punishment machinery needs, for each player, the worst payoff the
    rest of the players can force — a zero-sum game between that player and
    the (correlated) coalition of everyone else. *)

val value : Normal_form.t -> (float * Mixed.strategy * Mixed.strategy) option
(** For a two-player zero-sum game, [(v, row, col)]: the game value for the
    row player and optimal (maxmin / minmax) mixed strategies, via linear
    programming. [None] if the game is not two-player zero-sum. *)

val maxmin_pure : Normal_form.t -> player:int -> float
(** Pure security level: best over own pure actions of the worst payoff
    over all others' joint pure responses. *)

val minmax_correlated : Normal_form.t -> player:int -> float * Mixed.strategy
(** The lowest expected payoff the other players, deviating jointly and with
    correlation, can force on [player] when [player] best-responds; returns
    that value and a maxmin mixed strategy for [player]. Computed as the LP
    value of the zero-sum game between [player] (rows) and the joint action
    space of everyone else (columns). This is the punishment level used by
    the mediator feasibility analysis. *)
