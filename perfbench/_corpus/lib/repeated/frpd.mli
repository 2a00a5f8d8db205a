(** Finitely repeated prisoner's dilemma with memory costs (Example 3.2).

    Players choose automata; utility = discounted repeated-game payoff −
    [memory_cost] × (number of states). The paper's claim: for any positive
    memory cost, a sufficiently long game makes (TfT, TfT) a Nash
    equilibrium of the machine game, because the only improving deviation —
    tit-for-tat that defects in the last round — must count rounds, and the
    extra states cost more than the discounted $2 gain. *)

type spec = {
  stage : Repeated.stage;
  horizon : int;  (** N, number of rounds. *)
  delta : float;  (** Discount factor (paper: 0.5 < δ < 1). *)
  memory_cost : float;  (** Cost per automaton state. *)
}

val default_space : horizon:int -> Automaton.t list
(** AllC, AllD, Grim, TfT, Pavlov, Alternator, TfT-defect-last(horizon) and
    the Defect-from(r) family — a machine space rich enough to contain the
    backward-induction deviations. *)

val paper_space : horizon:int -> Automaton.t list
(** The space implicit in the paper's Example 3.2 argument: TfT, AllD and
    the round-counting defection machines. In the {e full} default space,
    (TfT, TfT) is never an exact equilibrium under per-state charges,
    because AllC (one state) achieves the same play against TfT with one
    state fewer — an artifact the paper's argument elides; see DESIGN.md.
    Within [paper_space] the paper's claim is exact, and it is what
    experiment E7 reproduces. *)

val utility : spec -> Automaton.t -> Automaton.t -> float
(** Player 1's machine-game utility. *)

val to_game : ?space:Automaton.t list -> spec -> Bn_game.Normal_form.t * Automaton.t array
(** Symmetric machine game over the space (payoffs = machine-game
    utilities). *)

val is_equilibrium : ?space:Automaton.t list -> spec -> Automaton.t -> bool
(** Is (m, m) a Nash equilibrium of the machine game over the space? *)

val best_response :
  ?space:Automaton.t list -> spec -> Automaton.t -> Automaton.t * float
(** Best machine in the space against a fixed opponent machine, with its
    utility. *)

val tft_threshold_cost : spec -> float
(** The closed-form bound from the paper's argument: (TfT, TfT) is an
    equilibrium (against the counting deviation) iff
    [memory_cost × (states(TfT-defect-last) − states(TfT)) ≥ 2·δ^N];
    returns the right-hand side divided by the state difference, i.e. the
    minimal memory cost. *)

val min_horizon_for_equilibrium :
  ?max_n:int -> memory_cost:float -> delta:float -> unit -> int option
(** Smallest horizon at which (TfT, TfT) becomes an equilibrium of the
    default space under the paper's PD payoffs. *)
