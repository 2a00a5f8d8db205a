(** The named games used throughout the paper and this reproduction. *)

val prisoners_dilemma : Normal_form.t
(** The paper's §3 table: C/D with payoffs (3,3), (−5,5)/(5,−5), (−3,−3).
    Note the paper's text says mutual defection gives 1 but its table
    says −3; we follow the table. *)

val prisoners_dilemma_classic : Normal_form.t
(** The standard (3,3)/(0,5)/(5,0)/(1,1) variant used by the tournament
    literature (Axelrod payoffs T=5, R=3, P=1, S=0). *)

val coordination_01 : int -> Normal_form.t
(** §2's n-player 0/1 game: everyone plays 0 ⇒ all get 1; exactly two play
    1 ⇒ those two get 2 and the rest 0; otherwise all get 0. The all-0
    profile is Nash but not 2-resilient. *)

val bargaining : int -> Normal_form.t
(** §2's bargaining game: all stay ⇒ all get 2; anyone leaves ⇒ leavers get
    1, stayers get 0. All-stay is k-resilient for every k but not
    1-immune. Action 0 = stay, action 1 = leave. *)

val roshambo : Normal_form.t
(** Rock-paper-scissors as in Ex 3.3: payoff 1 to the winner, −1 to the
    loser, 0 on ties; zero-sum with unique uniform equilibrium. *)

val matching_pennies : Normal_form.t
(** Classic 2×2 zero-sum game with a unique mixed equilibrium. *)

val battle_of_sexes : Normal_form.t
(** Two pure equilibria + one mixed: exercises multiple-equilibrium
    selection, one of the paper's §1 complaints about Nash equilibrium. *)

val stag_hunt : Normal_form.t
(** Payoff- vs risk-dominance tension. *)

val chicken : Normal_form.t
(** Anti-coordination; used in mediator examples (correlated equilibria
    outside the convex hull of Nash equilibria). *)
