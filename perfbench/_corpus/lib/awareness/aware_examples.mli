(** The paper's §4 running example (Figures 1–3) and an
    awareness-of-unawareness example with virtual moves.

    Underlying game (Figure 1): A moves [down_A] (payoffs (1,1)) or
    [across_A]; then B moves [down_B] ((2,2)) or [across_B] ((0,0)).
    (across_A, down_B) is a Nash equilibrium, but if A is unaware of
    [down_B] then a rational A plays [down_A].

    The game with awareness uses three augmented games: the modeler's game
    Γ^m, A's subjective game Γ^A (nature first decides, with probability
    [p], that B is unaware of [down_B] — Figure 2), and Γ^B, the game a
    [down_B]-unaware B believes is being played (Figure 3). *)

val underlying : Bn_extensive.Extensive.t
(** Figure 1; player 0 = A, player 1 = B. *)

val with_awareness : p:float -> Awareness.t
(** The game with awareness [(G, Γ^m, F)] of the example, where [p] is A's
    probability that B is unaware of [down_B]. Game names: ["modeler"],
    ["gameA"], ["gameB"]. *)

val generalized_equilibria : p:float -> Awareness.profile list
(** All pure generalized Nash equilibria. For p < 1/2 A plays [across_A]
    in its subjective game; for p > 1/2 A plays [down_A]. *)

val modeler_outcome : p:float -> Awareness.profile -> float array
(** Payoffs of the modeler's game under a generalized profile — what an
    omniscient observer sees happen. *)

val underlying_nash_profiles : unit -> (string * string) list
(** The pure Nash equilibria of the underlying game (Figure 1), as
    (A's move, B's move) — for the contrast row of experiment E9. *)

(** {1 Awareness of unawareness} *)

val virtual_move_game : estimate:float -> Awareness.t
(** A two-player "new technology" game. The modeler's game gives B a real
    move [secret_weapon] (payoffs (−4, 4) after A attacks). A cannot
    conceive of the move but is aware she may be unaware: her subjective
    game ["gameA"] replaces it with a {e virtual move} whose terminal
    payoff for A is her [estimate]. If [estimate] is low enough, A prefers
    peace — the paper's "this may encourage peace overtures". *)

val virtual_attack_utility : estimate:float -> float * float
(** A's subjective utilities of (attack, peace) in the virtual-move game —
    attack is optimal iff the estimate is high. *)
