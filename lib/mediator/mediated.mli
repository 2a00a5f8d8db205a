(** Bayesian games extended with a mediator (trusted third party).

    A mediator collects reported types and returns (possibly randomized)
    private action recommendations. The {e mediated game} is the extension
    of the underlying Bayesian game where each player chooses how to report
    and whether to obey; the honest strategy reports truthfully and obeys.

    A cheap-talk protocol {e implements} the mediator if it induces the
    same distribution over underlying actions for every type vector
    (paper §2); {!Cheap_talk} provides such implementations, and this
    module provides the mediator side plus robustness checks of the honest
    profile against coalitions of misreporting/disobeying players. *)

type t = {
  base : Bn_bayesian.Bayesian.t;
  mediate : int array -> int array Bn_util.Dist.t;
      (** Reported type profile → distribution over recommended action
          profiles. *)
}

val honest_utilities : t -> float array
(** Ex-ante utilities of the honest profile. *)

val outcome_for_types : t -> int array -> int array Bn_util.Dist.t
(** Action distribution for a fixed type profile under honesty — the object
    a cheap-talk implementation must match. *)

(** A pure deviation for one player: how to misreport and how to act given
    its true type and the mediator's recommendation. *)
type deviation = {
  report : int -> int;  (** true type → reported type *)
  act : int -> int -> int;  (** true type → recommendation → action *)
}

val honest_deviation : deviation

val utilities_under : t -> (int * deviation) list -> float array
(** Ex-ante utilities when the listed players apply their deviations and
    everyone else is honest. *)

val is_truthful_equilibrium : ?eps:float -> t -> bool
(** No single player gains by any pure (misreport, disobey) deviation. *)

val check_resilience : ?eps:float -> t -> k:int -> (int list * float array) option
(** [None] if no coalition of ≤ k players has a joint pure deviation
    benefiting a member; otherwise a witness (coalition, utilities). *)

val check_immunity : ?eps:float -> t -> t_bound:int -> (int list * int * float) option
(** [None] if no set of ≤ [t_bound] deviators can lower a non-deviator's
    ex-ante utility; otherwise (deviators, victim, victim's utility). *)

val all_deviations : t -> player:int -> deviation list
(** Every pure deviation of [player] (exponential in type/action counts;
    intended for the small games in tests and benches). *)
