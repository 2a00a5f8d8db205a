(** Finitely repeated 2×2 games played by automata. *)

type stage = {
  payoffs : float array array array;
      (** [payoffs.(a1).(a2)] = payoff vector (player 1, player 2). *)
  action_names : string array;
}

val pd_paper : stage
(** The paper's §3 prisoner's dilemma table: (3,3) / (−5,5) / (5,−5) /
    (−3,−3). *)

val pd_classic : stage
(** Axelrod payoffs: R=3, S=0, T=5, P=1. *)

type play = {
  actions : (int * int) list;  (** Round-by-round action pairs. *)
  total : float * float;  (** Discounted totals (δ^1 r_1 + … + δ^N r_N). *)
}

val play :
  ?delta:float -> stage -> rounds:int -> Automaton.t -> Automaton.t -> play
(** Deterministic play of two automata. [delta] defaults to 1 (no
    discounting). Discounting follows the paper: round m is weighted
    δ^m. *)

val noisy_play :
  Bn_util.Prng.t -> noise:float -> ?delta:float -> stage -> rounds:int ->
  Automaton.t -> Automaton.t -> play
(** Like {!play}, but each realized action is flipped independently with
    probability [noise] (trembles). Both automata observe and react to the
    {e noisy} actions — the setting where unforgiving strategies like Grim
    collapse and reciprocators suffer echo feuds. *)

val discounted_payoffs :
  ?delta:float -> stage -> rounds:int -> Automaton.t -> Automaton.t -> float * float

val cooperation_rate : play -> float
(** Fraction of (player, round) choices that were action 0. *)
