(** Finite extensive-form games with chance moves and information sets.

    A game tree's decision nodes carry a player and an information-set
    label; nodes sharing a label belong to one information set and must
    offer the same move list. This is the representation that §4's
    augmented games extend with awareness levels. *)

type node =
  | Terminal of float array  (** Payoff per player. *)
  | Chance of (string * float * node) list
      (** Labelled chance edges with probabilities summing to 1. *)
  | Decision of { player : int; info : string; moves : (string * node) list }
      (** A decision node in information set [info]. *)

type t

val create : n_players:int -> node -> t
(** Validates the tree: payoff arity, chance probabilities, player indices
    in range, and consistency of move lists within each information set.
    @raise Invalid_argument on malformed trees. *)

val root : t -> node
val n_players : t -> int

val info_sets : t -> player:int -> (string * string list) list
(** Information sets of a player as (label, move names), in first-visit
    order. *)

val histories : t -> string list list
(** All maximal histories (paths to terminals) as lists of edge labels,
    including chance edges. *)

(** {1 Strategies} *)

type pure = (string * string) list
(** Pure strategy of one player: a move name per information-set label. *)

type behavioral = (string * (string * float) list) list
(** A distribution over move names per information-set label. *)

val pure_strategies : t -> player:int -> pure list
(** All pure strategies (cartesian product over the player's info sets). *)

val behavioral_of_pure : pure -> behavioral

val outcome : t -> behavioral array -> float array Bn_util.Dist.t
(** Distribution over terminal payoff vectors when each player follows its
    behavioral strategy.
    @raise Invalid_argument if a strategy omits a reached info set. *)

val expected_payoffs : t -> behavioral array -> float array
(** Expectation of {!outcome}. *)

val to_normal_form : t -> Bn_game.Normal_form.t * pure list array
(** The induced normal form: one action per pure strategy per player.
    Returns the game and the pure-strategy denotation of each action. *)

val backward_induction : t -> pure array * float array
(** Subgame-perfect equilibrium of a {e perfect-information} game (every
    information set a singleton), by backward induction; ties broken toward
    the first listed move. Returns the profile and its expected payoffs.
    @raise Invalid_argument if some information set has several nodes. *)

val kernel : t -> behavioral array Bn_game.Kernel_game.t
(** The deviation view: one agent per player, whose options are its
    {!pure_strategies} and whose utility is its {!expected_payoffs} entry. *)

val is_nash : ?eps:float -> t -> behavioral array -> bool
(** No player gains more than [eps] by a pure deviation (exact for pure
    profiles; behavioral profiles are checked against all pure deviations,
    which is sufficient by perfect recall). *)

val to_dot : ?title:string -> t -> string
(** Graphviz rendering of the game tree: decision nodes labelled
    "player/info-set", chance nodes as diamonds with probabilities on the
    edges, terminals as payoff boxes. Paste into `dot -Tsvg`. *)
