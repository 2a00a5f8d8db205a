(** k-resilient sequential equilibrium for communication games
    (arXiv:2309.14618, Geffner–Halpern).

    Nash checks ignore what happens off the equilibrium path, which is
    precisely where cheap-talk protocols hide non-credible threats: a
    punishment clause nobody would carry out still deters in Nash terms.
    Sequential equilibrium closes that gap — at {e every} information set,
    given beliefs obtained as the limit of small trembles, the prescribed
    continuation must be a best response; the k-resilient version asks it
    for every coalition of up to [k] players.

    {!check} verifies this per information set against the induced
    extensive game: beliefs come from an ε-perturbed profile (every move
    trembled to probability ≥ ε/m), and a {!witness} is a coalition whose
    joint pure deviation strictly improves every member conditional on
    reaching the set. The two canned games bracket the thresholds the
    mediator sweep explores: {!punishment_game} flips at [n > 2k+2t]
    (bullets 5/6 — credibility of majority punishment) and
    {!async_stall_game} at [n > 4(k+t)] (the asynchronous decoding
    bound). *)

type witness = {
  info : string;  (** The information set where the deviation pays. *)
  owner : int;  (** The player who moves there. *)
  coalition : int list;
  deviation : Bn_extensive.Extensive.pure array;  (** One plan per member. *)
  gains : (int * float) list;  (** Strict conditional gain per member. *)
}

val check :
  ?trembles:float ->
  ?tol:float ->
  Bn_extensive.Extensive.t ->
  Bn_extensive.Extensive.behavioral array ->
  k:int ->
  witness option
(** [None] iff the profile is a k-resilient sequential equilibrium: no
    coalition of ≤ [k] players has a joint pure deviation strictly
    improving every member at any information set, with beliefs derived
    from the [trembles]-perturbed profile (default [1e-3]) and strictness
    margin [tol] (default [1e-9]). The profile must cover every
    information set of every player.
    @raise Invalid_argument on [k < 1] or an incomplete profile. *)

val is_sequentially_k_resilient :
  ?trembles:float ->
  ?tol:float ->
  Bn_extensive.Extensive.t ->
  Bn_extensive.Extensive.behavioral array ->
  k:int ->
  bool

val describe : witness -> string
(** One-line rendering for tables and test failures. *)

(** {1 Canned threshold games} *)

val punishment_game :
  n:int -> k:int -> t:int -> Bn_extensive.Extensive.t * Bn_extensive.Extensive.behavioral array
(** [n]-player game: player 0 obeys or defects; player 1 (the
    representative punisher) reacts at an off-path information set.
    Punishing is personally worthwhile iff the honest majority holds
    ([n > 2k+2t]), so the (obey, punish) profile is Nash on both sides of
    the threshold but sequentially k-resilient only above it — the
    credible-punishment content of bullets 5/6.
    @raise Invalid_argument unless [n ≥ 2], [k ≥ 1], [t ≥ 0]. *)

val async_stall_game :
  n:int -> k:int -> t:int -> Bn_extensive.Extensive.t * Bn_extensive.Extensive.behavioral array
(** [n]-player game: player 0 (coalition proxy) relays its shares or
    withholds them. Above the asynchronous bound ([n > 4(k+t)]) decoding
    succeeds regardless and withholding is strictly wasteful; below it,
    withholding stalls the honest parties and pays — the (relay, abort)
    profile is a k-resilient sequential equilibrium iff
    {!Feasibility.classify_async} says [Async_implementable].
    @raise Invalid_argument unless [n ≥ 2], [k ≥ 1], [t ≥ 0]. *)
