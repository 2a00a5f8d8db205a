(** Commit–reveal coin flipping (Blum).

    A fairness primitive the cheap-talk constructions lean on: two parties
    jointly produce a coin neither controls. Each commits to a random bit,
    commitments are exchanged, then openings; the coin is the XOR. A party
    that aborts after seeing the other's opening can bias the {e output
    conditioned on completion} — the residual unfairness that motivates the
    ε in the paper's ε-implementation bullets. *)

type transcript = {
  coin : int option;  (** The XOR, or [None] if a party aborted. *)
  aborted_by : int option;
  commitments_checked : bool;  (** Both openings matched their commitments. *)
}

val honest : Bn_util.Prng.t -> transcript
(** Both parties follow the protocol; always completes with a fair coin. *)

val biased_aborter : Bn_util.Prng.t -> prefer:int -> transcript
(** Party 1 opens first; party 2 aborts unless the resulting coin would be
    [prefer]. The completed-run coin is always [prefer] — exhibiting the
    bias an aborter can extract. *)

val cheater_caught : Bn_util.Prng.t -> transcript
(** Party 2 tries to open a different bit than committed; the commitment
    check fails ([commitments_checked = false], no coin). *)

val completion_bias :
  Bn_util.Prng.t -> trials:int -> prefer:int -> float * float
(** [(completion_rate, bias)] of {!biased_aborter} over [trials]: the run
    completes ≈ half the time, and conditioned on completion the coin is
    [prefer] with probability 1. *)
