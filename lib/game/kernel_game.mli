(** One solver surface for every game representation.

    Each of the paper's concepts is Nash equilibrium with one part
    generalised (§1), so the deviation search is written once, here,
    against agents with finitely many pure options, and each representation
    ([Extensive], [Bayesian], [Awareness], [Machine_game], [Mediated],
    [Sequential]) bridges in. Searches run agents, options and coalitions
    in ascending order (coalitions as {!Bn_util.Combin.subsets_up_to}, joint
    assignments row-major), so the first witness depends on the game alone. *)

type 'p t = {
  agents : int;  (** Number of agents: players, (player, type) pairs, ... *)
  options : int -> int;  (** Pure options of an agent, indexed from 0. *)
  deviate : 'p -> int -> int -> 'p;
      (** [deviate p a o] is [p] with agent [a] switched to option [o];
          [p] itself is left unchanged. *)
  utility : 'p -> int -> float;  (** [utility p a]: agent [a]'s payoff at [p]. *)
}

val set : 'a array -> int -> 'a -> 'a array
(** [set a i x]: a copy of [a] with entry [i] replaced by [x] — the
    [deviate] of array-shaped profiles. *)

val best_deviation : ?eps:float -> 'p t -> 'p -> int -> (int * float) option
(** [best_deviation k p a]: among agent [a]'s options whose utility exceeds
    [utility p a] by strictly more than [eps] (default [1e-9]), the one of
    highest utility, the first of ties winning, with that utility. *)

val first_deviation : ?eps:float -> 'p t -> 'p -> (int * int) option
(** The lowest agent that has a {!best_deviation}, and that option. *)

val is_nash : ?eps:float -> 'p t -> 'p -> bool
(** No agent has a {!best_deviation}. *)

val pure_profiles : 'p t -> 'p -> 'p list
(** Every profile obtained from the base profile by switching each agent to
    a pure option, in row-major order of the option tuple (agent 0
    slowest). Each profile is built by deviating the agents from the last
    to the first. *)

val pure_equilibria : ?eps:float -> 'p t -> 'p -> 'p list
(** The {!pure_profiles} that satisfy {!is_nash}. *)

val find_coalition :
  'p t -> 'p -> max_size:int -> (int list -> int array -> 'p -> 'w option) -> 'w option
(** [find_coalition k p ~max_size gain] applies [gain coalition choice p']
    to every non-empty coalition of at most [max_size] agents and every
    joint assignment [choice] of options to its members ([choice.(j)] is
    the option of the [j]-th member; the array is reused), where [p'] is
    [p] with each member deviated to its option. Returns the first
    [Some] witness. *)
