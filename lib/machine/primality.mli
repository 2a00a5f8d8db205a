(** The primality-testing game (paper Example 3.1).

    You are given an n-bit number; you may guess whether it is prime (win
    $10 / lose $10) or play safe ($1). The unique classical Nash equilibrium
    answers correctly, but once the {e cost of computing} primality is
    charged, playing safe becomes the computational equilibrium for large
    inputs.

    The decider is deterministic Miller–Rabin (polynomial time — matching
    the paper's remark that primality {e can} be decided efficiently); the
    complexity of a run is its number of modular multiplications. *)

val is_prime : int -> bool
(** Ground truth: Miller–Rabin with a deterministic base set, exact for
    every OCaml [int] (all n ≤ max_int = 2⁶² − 1; false for n < 2). *)

val counted_is_prime : int -> bool * int
(** Result and the number of modular multiplications performed. *)

type spec = {
  bits : int;  (** Input bit-length n. *)
  cost_per_op : float;  (** Dollars per modular multiplication. *)
  samples : int;  (** Inputs sampled to build the (finite) type space. *)
  reward_correct : float;  (** Default 10. *)
  penalty_wrong : float;  (** Default 10. *)
  reward_safe : float;  (** Default 1. *)
}

val default_spec : bits:int -> cost_per_op:float -> spec

val game : Bn_util.Prng.t -> spec -> Machine_game.t
(** One-player machine game over a sampled type space of [bits]-bit odd
    numbers. Machine space: [solve] (Miller–Rabin, complexity counted),
    [safe], [guess-prime], [guess-composite]. *)

val machine_names : string array
(** Names in machine-space order: [|"solve"; "safe"; "guess-prime";
    "guess-composite"|]. *)

val equilibrium_choice : Bn_util.Prng.t -> spec -> int
(** Index of the machine that is the (unique up to ties) computational
    equilibrium of the one-player game — the utility-maximizing machine. *)

val utilities : Bn_util.Prng.t -> spec -> (string * float) list
(** Expected utility of each machine, for tables. *)

val crossover_bits :
  ?lo:int -> ?hi:int -> Bn_util.Prng.t -> cost_per_op:float -> int option
(** Smallest bit length in [lo, hi] at which [safe] overtakes [solve]. *)
