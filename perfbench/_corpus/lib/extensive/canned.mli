(** Canned extensive-form games.

    The classic backward-induction showcases the paper's §1 alludes to when
    it calls the always-defect equilibrium of repeated prisoner's dilemma
    "neither normatively nor descriptively reasonable": centipede, the
    ultimatum game and the trust game all have subgame-perfect outcomes that
    people reliably do not play. *)

val centipede : rounds:int -> Extensive.t
(** Alternating Take/Pass over a growing pot. At node [i] (0-based, mover
    alternates starting with player 0) taking splits the pot favourably for
    the mover: [(2 + i, i)] to (mover, other); passing grows the pot. After
    [rounds] passes the game ends at [(rounds + 1, rounds + 1)]. Backward
    induction takes immediately; cooperation would make both far better
    off — the repeated-PD paradox in one tree. Requires [rounds ≥ 1]. *)

val ultimatum : pie:int -> Extensive.t
(** Proposer offers [k ∈ 0..pie] to the responder, who accepts ([(pie − k,
    k)]) or rejects ([(0, 0)]) at a separate information set per offer.
    Subgame perfection offers 0; humans do not. Requires [pie ≥ 1]. *)

val trust : multiplier:int -> Extensive.t
(** Investor keeps 1 (payoffs (1,1)) or invests; the investment grows to
    [multiplier] and the trustee shares ((multiplier/2, multiplier/2 + 1))
    or keeps ((0, multiplier + 1)). Backward induction: keep, so no
    investment. Requires [multiplier ≥ 2]. *)

val take_the_money : Extensive.t
(** The 2-round centipede — small enough for exhaustive tests. *)
