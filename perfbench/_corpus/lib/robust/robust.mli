(** Resilient, immune and robust equilibria (paper §2).

    Following Abraham–Dolev–Gonen–Halpern (2006, 2008):

    - a profile is {e k-resilient} if no coalition of at most [k] players
      has a joint deviation from which a member profits;
    - it is {e t-immune} if no deviation by at most [t] players makes any
      non-deviator worse off;
    - it is {e (k,t)-robust} if both hold simultaneously: no coalition [C]
      of at most [k] players gains from a joint deviation {e even with the
      help of} up to [t] arbitrarily-behaving players [T] (disjoint from
      [C]), and deviations by at most [t] players alone never hurt a
      non-deviator. The immunity side concerns only the faulty set — this
      is what makes (1,0)-robustness coincide exactly with Nash
      equilibrium.

    Nash equilibrium is exactly (1,0)-robustness.

    Deviations are quantified over {e pure} joint action assignments. For
    the strong ("no member gains" / "no outsider hurt") conditions this is
    exact even against correlated mixed deviations, because the relevant
    utilities are linear in the deviation distribution and extreme points
    are pure. The [Weak] resilience variant (Aumann-style: a deviation
    blocks only if {e every} member strictly gains) is exact for pure
    deviations only; this is noted in DESIGN.md. *)

type variant =
  | Strong  (** Deviation blocks if {e some} member strictly gains (ADGH). *)
  | Weak  (** Deviation blocks if {e every} member strictly gains. *)

type violation = {
  coalition : int list;  (** Rational deviators [C]. *)
  traitors : int list;  (** Faulty deviators [T] (empty for resilience). *)
  deviation : (int * int) list;  (** Joint pure deviation over [C ∪ T]. *)
  victim : int;  (** Player whose guarantee fails. *)
  before : float;  (** That player's equilibrium utility. *)
  after : float;  (** Utility under the deviation. *)
}

type verdict = Holds | Fails of violation

val pp_violation : Format.formatter -> violation -> unit

val check_resilience :
  ?variant:variant -> ?eps:float -> ?jobs:int -> Bn_game.Normal_form.t ->
  Bn_game.Mixed.profile -> k:int -> verdict
(** Is the profile [k]-resilient? [k = 0] always holds; [k = 1] with
    [Strong] is the Nash condition.

    All checkers take [?jobs] (default 1): the outermost coalition/traitor
    enumeration is chunked over that many domains via {!Bn_util.Pool} (one
    pool per check, shared by the immunity and resilience sides of
    {!check_robustness}). The verdict — including {e which} violation is
    reported — is identical to the serial scan for every [jobs] value.

    Deviated payoffs are evaluated through the support-product kernel:
    for a pure base profile every evaluation is a single table read behind
    a stride-shifted flat index (no profile copies, no per-assignment
    allocation); for mixed base profiles the cost scales with the
    non-deviators' support sizes instead of the full action grid. *)

val check_immunity :
  ?eps:float -> ?jobs:int -> Bn_game.Normal_form.t -> Bn_game.Mixed.profile ->
  t:int -> verdict
(** Is the profile [t]-immune? *)

val check_robustness :
  ?variant:variant -> ?eps:float -> ?jobs:int -> Bn_game.Normal_form.t ->
  Bn_game.Mixed.profile -> k:int -> t:int -> verdict
(** Is the profile [(k,t)]-robust? Quantifies over disjoint [C], [T] and
    joint deviations by their union. *)

val is_k_resilient :
  ?variant:variant -> ?eps:float -> ?jobs:int -> Bn_game.Normal_form.t ->
  Bn_game.Mixed.profile -> k:int -> bool

val is_t_immune :
  ?eps:float -> ?jobs:int -> Bn_game.Normal_form.t -> Bn_game.Mixed.profile ->
  t:int -> bool

val is_robust :
  ?variant:variant -> ?eps:float -> ?jobs:int -> Bn_game.Normal_form.t ->
  Bn_game.Mixed.profile -> k:int -> t:int -> bool

val max_resilience :
  ?variant:variant -> ?eps:float -> ?jobs:int -> Bn_game.Normal_form.t ->
  Bn_game.Mixed.profile -> int
(** Largest [k ≤ n] such that the profile is [k]-resilient (0 if not even
    1-resilient, i.e. not Nash). *)

val max_immunity :
  ?eps:float -> ?jobs:int -> Bn_game.Normal_form.t -> Bn_game.Mixed.profile -> int
(** Largest [t ≤ n] such that the profile is [t]-immune. [n] means immune
    to any number of deviators. *)

val robust_pure_equilibria :
  ?variant:variant -> ?eps:float -> ?jobs:int -> Bn_game.Normal_form.t ->
  k:int -> t:int -> int array list
(** All pure profiles that are (k,t)-robust equilibria. The profile sweep
    itself is chunked over one shared pool ([?jobs] domains); each
    per-profile check runs serially inside its worker, and the result list
    is in row-major profile order for every [jobs]. *)

val find_punishment :
  ?eps:float -> ?jobs:int -> Bn_game.Normal_form.t -> target:float array ->
  budget:int -> int array option
(** A pure {e punishment profile} ρ: if everyone but at most [budget]
    players plays ρ, then {e every} player ends up strictly below its
    [target] utility (the equilibrium payoffs), no matter what the ≤
    [budget] deviators do. This is the (k+t)-punishment strategy required
    by the mediator characterization. Exhaustive search, chunked over
    [?jobs] domains with one shared pool; the answer is the first
    qualifying profile in row-major order for every [jobs]. [None] if no
    pure profile qualifies. *)
