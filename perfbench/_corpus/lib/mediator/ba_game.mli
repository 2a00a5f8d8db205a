(** Byzantine agreement as a normal-form Bayesian game (paper §2).

    Player 0 is the general; its type is its initial preference (0 =
    retreat, 1 = attack), uniform prior. All players choose an action in
    {0, 1}. Utilities reward coordination and following an honest general:

    [u_i = 1{a_i = maj} + 1{maj = general's type}]

    where [maj] is the majority action (ties → 0). Coordinating on the
    general's preference yields 2 for everyone; miscoordination is costly.
    The majority aggregation makes the honest-mediated profile immune to
    minorities of faulty players — the property the cheap-talk protocol
    must preserve. *)

val game : n:int -> Bn_bayesian.Bayesian.t
(** The underlying Bayesian game for [n ≥ 3] players. *)

val mediator : n:int -> Mediated.t
(** The trivial mediator: it relays the general's reported type to everyone
    as a recommendation. *)

val majority : int array -> int
(** Majority action (ties → 0); exposed for tests. *)
