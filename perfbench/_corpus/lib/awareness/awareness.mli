(** Games with awareness and generalized Nash equilibrium (paper §4,
    following Halpern–Rêgo 2006).

    A game with awareness based on an underlying extensive game is a tuple
    [(G, Γ^m, F)]:

    - [G] is a set of {e augmented games} — extensive games (here with
      nature moves encoding uncertainty about awareness levels) describing
      the game from some subjective point of view;
    - [Γ^m ∈ G] is the modeler's game — the objective description;
    - [F] maps each (augmented game, information set of the mover) to the
      pair (augmented game the mover believes is being played, its
      information set there).

    A {e generalized strategy profile} assigns a behavioral strategy to
    each pair (player [i], augmented game [Γ'] that [i] may believe is the
    true game). Play at a node with information set [I] in game [Γ+] is
    given by the strategy of the pair [F(Γ+, I)] — so a player acts the
    same way wherever its subjective view is the same.

    A profile is a {e generalized Nash equilibrium} if for every pair
    [(i, Γ')] in the domain, [σ_{i,Γ'}] maximizes [i]'s expected payoff
    {e computed in Γ'} holding all other pairs fixed. Every game with
    awareness has one (Halpern–Rêgo); for the finite examples here,
    {!pure_generalized_equilibria} finds them exhaustively.

    Awareness of unawareness is modelled with {e virtual moves}: subjective
    games may contain moves leading to terminals whose payoffs encode the
    player's evaluation of the unknown continuation — no extra machinery is
    required. *)

type t

val create :
  games:(string * Bn_extensive.Extensive.t) list ->
  modeler:string ->
  f:(game:string -> info:string -> string * string) ->
  t
(** Validates: the modeler's game exists; [f] maps every (game,
    information-set) pair of a mover to an existing pair whose move list is
    a superset-compatible subset (the believed moves must all exist at the
    concrete node).
    @raise Invalid_argument on dangling references. *)

val games : t -> (string * Bn_extensive.Extensive.t) list
val modeler : t -> string

val required_pairs : t -> (int * string) list
(** All (player, believed game) pairs reachable through [F] — the domain of
    a generalized strategy profile. *)

type profile = ((int * string) * Bn_extensive.Extensive.behavioral) list
(** Generalized strategy profile, keyed by (player, game name). *)

val expected_payoffs : t -> game:string -> profile -> float array
(** Payoffs of the given augmented game when every node is played according
    to the profile entry selected by [F]. *)

val is_generalized_nash : ?eps:float -> t -> profile -> bool
(** Best-response check at every pair in {!required_pairs}. *)

val pure_generalized_equilibria : t -> profile list
(** Exhaustive search over pure generalized profiles. Exponential; for the
    small augmented games of the paper's examples. *)

val canonical : Bn_extensive.Extensive.t -> t
(** The canonical representation of a standard game as a game with
    awareness: [G = {Γ^m}], [F] the identity. A profile is a Nash
    equilibrium of the underlying game iff its obvious embedding is a
    generalized Nash equilibrium of the canonical representation
    (property-tested in the suite). *)

val embed_canonical : Bn_extensive.Extensive.t -> Bn_extensive.Extensive.behavioral array -> profile
(** The embedding used by the canonical-representation theorem. *)
