(** Scrip systems (Kash–Friedman–Halpern 2007; paper §5).

    [n] agents exchange work for scrip. Each round a uniformly random agent
    wants service (worth [benefit]); if it has at least one unit of scrip,
    a volunteer is picked uniformly among agents willing to work (at
    [cost] < [benefit]) and is paid one unit. Rational agents play
    {e threshold strategies}: volunteer iff their scrip is below a
    threshold k.

    The paper highlights two "standard" irrational behaviours a robust
    solution concept should tolerate: {e hoarders} (work regardless,
    never spend) and {e altruists} (provide service for free — the analogue
    of posting music on Kazaa). *)

type kind =
  | Standard of int  (** Threshold strategy with the given threshold. *)
  | Hoarder  (** Always volunteers, never requests. *)
  | Altruist  (** Always volunteers and does not ask to be paid. *)

type params = {
  n : int;
  rounds : int;
  benefit : float;  (** γ, utility of receiving service. *)
  cost : float;  (** β < γ, cost of providing it. *)
}

val default_params : n:int -> params
(** 100 rounds per agent, γ = 1.0, β = 0.2. *)

type stats = {
  utilities : float array;  (** Total utility per agent. *)
  satisfied : int;  (** Requests served. *)
  requests : int;  (** Requests made (includes unserved). *)
  starved : int;  (** Rounds where the chooser had no scrip to pay. *)
  unserved : int;  (** Rounds with money but no volunteer. *)
  final_scrip : int array;
}

val simulate :
  Bn_util.Prng.t -> params -> kinds:kind array -> money_per_agent:float -> stats
(** Initial scrip: [floor (money_per_agent · n)] units dealt round-robin.

    This is the fast sequential path: agent state in struct-of-arrays
    columns ({!Bn_agents.Soa}) and the willing set in a Fenwick tree, so
    each round costs O(log n) instead of the O(n) willing-list rebuild.
    Bitwise-equal to {!simulate_naive} — identical [stats] record for
    every seed (QCheck-pinned). For n ≳ 10⁵ and the batched sharded step
    loop (deterministic at any [?jobs]), use {!Scrip_soa}; its analytic
    verification layer is {!Steady_state}. *)

val simulate_naive :
  Bn_util.Prng.t -> params -> kinds:kind array -> money_per_agent:float -> stats
(** The original boxed per-agent loop (O(n) per round), retained as the
    bitwise oracle for {!simulate} — the same role [Simplex.solve_dense]
    plays for the revised simplex. *)

val efficiency : params -> stats -> float
(** Realized fraction of the social optimum: served requests ÷ total
    opportunities. *)

val avg_utility : stats -> who:(int -> bool) -> float
(** Mean total utility of the selected agents. *)

val best_threshold :
  Bn_util.Prng.t -> params -> others:int -> money_per_agent:float ->
  candidates:int list -> int * float
(** Empirical best response: all other agents use threshold [others];
    returns the candidate threshold maximizing agent 0's utility (common
    random numbers across candidates) and that utility. A threshold k with
    [best_threshold ~others:k = k] is an (empirical) symmetric equilibrium. *)

val symmetric_equilibrium :
  Bn_util.Prng.t -> params -> money_per_agent:float -> candidates:int list ->
  int option
(** Iterates the empirical best-response map over [candidates] until a
    fixed point: a threshold k with [best_threshold ~others:k = k] — an
    empirical symmetric threshold equilibrium (KFH). [None] if the
    iteration cycles instead of converging. *)
