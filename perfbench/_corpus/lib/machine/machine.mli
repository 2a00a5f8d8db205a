(** Machines: strategies with explicit computational complexity (paper §3).

    Following Halpern–Pass, a player in a computational game chooses a
    {e machine} rather than an action. A machine maps the player's type
    (its input) to a — possibly randomized — action, and carries a
    complexity function of the input. The complexity can encode running
    time, memory, number of automaton states, or a flat charge for using
    randomization (as in computational roshambo, Ex 3.3).

    The paper's Turing-machine formulation is replaced by this finite
    transducer abstraction; see DESIGN.md §3 — every example in the paper
    only inspects the machine's action distribution and its complexity on
    the realized input, both of which are preserved. *)

type t = {
  name : string;
  act : int -> int Bn_util.Dist.t;
      (** Input (the player's type) → distribution over actions; a
          deterministic machine returns point masses. *)
  complexity : int -> float;  (** Input → complexity. *)
  randomized : bool;
      (** Whether [act] ever returns a non-degenerate distribution (so
          complexity rules can charge for randomness). *)
}

val deterministic : string -> ?complexity:(int -> float) -> (int -> int) -> t
(** Deterministic machine; default complexity: constant 1. *)

val randomizing :
  string -> ?complexity:(int -> float) -> (int -> int Bn_util.Dist.t) -> t
(** Randomizing machine; default complexity: constant 2 (the Ex 3.3
    convention: randomization costs one extra unit). *)

val constant : string -> ?complexity:(int -> float) -> int -> t
(** Machine ignoring its input. *)

val pp : Format.formatter -> t -> unit
