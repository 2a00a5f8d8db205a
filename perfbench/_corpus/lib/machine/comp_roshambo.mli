(** Computational roshambo (paper Example 3.3): a machine game with no
    computational Nash equilibrium.

    Machine space per player: the three deterministic machines (complexity
    1) and the uniform randomizer (complexity 2); utility is the zero-sum
    roshambo payoff minus the machine's complexity. Any deterministic pair
    is beaten by a counter-deviation; any randomizing machine is dominated
    by saving the randomization cost — so no pure machine profile is an
    equilibrium, even though classical roshambo has its uniform mixed
    equilibrium. *)

val game : ?extra_randomizers:bool -> unit -> Machine_game.t
(** With [extra_randomizers] (default false) two biased randomizing
    machines are added; nonexistence persists. *)

val has_equilibrium : Machine_game.t -> bool

val certificate : Machine_game.t -> (int array * int * int) list option
(** {!Machine_game.nonexistence_certificate}: for every profile, a player
    and a profitable machine switch. *)

val classical_equilibria : unit -> Bn_game.Mixed.profile list
(** Equilibria of classical (costless) roshambo — the uniform mix — for
    the contrast row in the experiment table. *)
