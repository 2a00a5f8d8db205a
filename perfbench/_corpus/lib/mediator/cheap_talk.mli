(** Cheap-talk implementations of mediators (paper §2).

    Two constructions:

    - {!generals_eig}: implements the Byzantine-agreement mediator
      ({!Ba_game.mediator}) by unauthenticated Byzantine agreement — the
      general disseminates its type, then all players run EIG on what they
      received. For [n > 3t] this induces exactly the mediator's action
      distribution for every type, with bounded (t+2) rounds and no
      knowledge of utilities, the shape of the paper's first bullet. A
      {e naive echo} protocol is provided as the straw man that a faulty
      general breaks.

    - {!share_exchange}: the secret-reconstruction step at the core of the
      MPC-style constructions: a recommendation is Shamir-shared with
      polynomial degree [k+t] (so coalitions of size ≤ k+t learn nothing
      early) and reconstruction must tolerate [t] corrupted shares, which
      Berlekamp–Welch decoding achieves exactly when [n ≥ (k+t) + 2t + 1],
      i.e. [n > k+3t] — the threshold of the paper's seventh bullet. *)

type outcome = {
  actions : int option array;  (** Honest players' actions; [None] = corrupt. *)
  rounds : int;
  messages : int;
}

val generals_eig :
  ?corrupted:int list ->
  ?delivered:int array ->
  ?faults:Bn_byzantine.Eig.msg Bn_dist_sim.Sync_net.fault_plan ->
  n:int -> t:int -> general_type:int ->
  unit ->
  outcome
(** Round 1 the general sends its type to everyone; [delivered] overrides
    what each player received (an equivocating general); [corrupted]
    players then follow the EIG lying adversary; [faults] injects an
    environment fault plan into the EIG phase (see
    {!Bn_dist_sim.Faults}). Honest players act on the EIG decision. *)

val generals_naive :
  ?delivered:int array ->
  n:int -> general_type:int ->
  unit ->
  outcome
(** The echo protocol: everyone simply plays whatever the general sent
    them. Correct with an honest general, broken by an equivocating one. *)

val tv_to_mediator :
  n:int -> general_type:int -> outcome -> float
(** Total-variation distance between the mediator's action distribution for
    this type and the (deterministic) cheap-talk outcome, over honest
    players' actions. Corrupt players are projected out of both sides. *)

type share_exchange_result = {
  succeeded : bool;  (** Every honest player reconstructed the secret. *)
  reconstructions : int option array;
  threshold_needed : int;  (** k + 3t + 1, the decoding bound. *)
}

val share_exchange :
  Bn_util.Prng.t -> n:int -> k:int -> t:int -> secret:int ->
  corrupted:int list ->
  share_exchange_result
(** Shares [secret] with degree [k+t] among [n] players; players on
    [corrupted] broadcast corrupted shares; every honest player then runs
    robust reconstruction with [max_errors = t]. *)

val share_exchange_succeeds_theoretically : n:int -> k:int -> t:int -> bool
(** [n ≥ k + 3t + 1]. *)
