(** Dolev–Strong authenticated broadcast.

    With a PKI (digital signatures), a designated sender broadcasts a value
    so that all honest processes agree on {e some} value after [t+1] rounds,
    for {e any} number [t] of Byzantine faults — including regimes where
    unauthenticated agreement is impossible (n ≤ 3t). This mirrors the
    paper's last mediator bullet: with a PKI, cheap talk implements the
    mediator whenever [n > k + t].

    A value is {e accepted} at round [r] iff it arrives with a chain of [r]
    valid signatures from distinct processes starting with the sender.
    Honest processes relay newly accepted values with their own signature
    appended. After [t+1] rounds they decide the unique accepted value, or
    the default if they accepted zero or several. *)

type chain = (int * Bn_crypto.Hashing.Pki.signature) list
(** Signature chain: (signer, signature over the value), sender first. *)

type msg = int * chain
(** (value, chain). *)

type state

val protocol :
  pki:Bn_crypto.Hashing.Pki.t ->
  n:int -> t:int -> sender:int -> value:int -> default:int ->
  (state, msg, int) Bn_dist_sim.Sync_net.protocol
(** [value] is used only by the (honest) sender. *)

val run :
  ?adversary:msg Bn_dist_sim.Sync_net.adversary ->
  ?faults:msg Bn_dist_sim.Sync_net.fault_plan ->
  pki:Bn_crypto.Hashing.Pki.t ->
  n:int -> t:int -> sender:int -> value:int -> default:int -> unit ->
  int Bn_dist_sim.Sync_net.result
(** Runs for [t+1] rounds. *)

val equivocating_sender :
  pki:Bn_crypto.Hashing.Pki.t -> sender:int -> n:int -> msg Bn_dist_sim.Sync_net.adversary
(** A corrupted sender that signs 0 for the lower half of the processes and
    1 for the upper half in round 1 (then stays silent). Honest relaying
    still forces agreement. *)

val agreement : int Bn_dist_sim.Sync_net.result -> bool

val validity_sender :
  sender_value:int -> int Bn_dist_sim.Sync_net.result -> bool
(** Every decided output equals the (honest) sender's value. *)
