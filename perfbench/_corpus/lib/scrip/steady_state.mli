(** Analytic steady state of a scrip system, and goodness-of-fit tests.

    Kash–Friedman–Halpern (2007) show that when every agent plays the
    threshold strategy [k] and the average money supply is [m] units per
    agent (0 < m < k), the empirical distribution of money holdings
    converges, as n → ∞, to the {e maximum-entropy} distribution over
    [{0, …, k}] with mean [m]:

    {v P(j) ∝ λ^j,  j = 0 … k,  λ chosen so that Σ j·P(j) = m v}

    — a truncated geometric (exponential-family) law; λ = 1 (uniform)
    exactly when m = k/2. This module computes that distribution and
    provides the statistical machinery the million-agent simulator is
    verified against: Pearson's chi-square with small-expected-bin
    merging, an approximate critical value (Wilson–Hilferty), and total
    variation distance. Everything is closed-form or bisection — no
    external statistics dependency. *)

val max_entropy : threshold:int -> money_per_agent:float -> float array
(** The max-entropy distribution over [{0 … threshold}] with mean
    [money_per_agent]: an array of [threshold + 1] probabilities summing
    to 1. λ is found by bisection (the mean is strictly increasing in λ).
    @raise Invalid_argument unless [threshold >= 1] and
    [0 < money_per_agent < threshold]. *)

type gof = {
  stat : float;  (** Pearson's X² after bin merging. *)
  df : int;  (** Merged bins − 1. *)
  critical : float;  (** The α = 0.01 critical value for [df]. *)
  tv : float;  (** Total variation distance (unmerged bins). *)
  pass : bool;  (** [stat <= critical]. *)
}

val chi_square : observed:int array -> expected:float array -> gof
(** Goodness of fit of observed counts against expected probabilities
    (same length; [expected] need not be exactly normalized — it is
    renormalized over the observed support). Adjacent bins are merged
    until every expected count is ≥ 5, the standard validity condition.
    @raise Invalid_argument on length mismatch or empty observations. *)

val total_variation : observed:int array -> expected:float array -> float
(** ½ Σ |observed/N − expected|, without bin merging. *)

val critical_99 : df:int -> float
(** Approximate 99th-percentile of the χ²(df) distribution
    (Wilson–Hilferty cube approximation; within ~1% for df ≥ 3). *)

val mean_of : float array -> float
(** Mean of a distribution over [{0, 1, …}] given as probabilities. *)
