(** FloodSet consensus for crash faults.

    With at most [f] {e crash} (not Byzantine) faults, flooding the set of
    seen values for [f+1] rounds and deciding by a fixed rule (minimum, or
    default on multiplicity) solves consensus for any [f < n] — a much
    weaker fault model than Byzantine, included to make E4's fault-model
    comparison concrete (crash vs Byzantine is exactly the paper's "faulty
    or unexpected behavior" spectrum). *)

type msg = int list
(** The set of values the sender has seen. *)

type state

val protocol :
  n:int -> f:int -> values:int array ->
  (state, msg, int) Bn_dist_sim.Sync_net.protocol

val run :
  ?adversary:msg Bn_dist_sim.Sync_net.adversary ->
  ?faults:msg Bn_dist_sim.Sync_net.fault_plan ->
  n:int -> f:int -> values:int array -> unit ->
  int Bn_dist_sim.Sync_net.result
(** Runs f+1 rounds; decides min of the seen set. *)

val crash_after :
  rng:Bn_util.Prng.t -> n:int -> corrupted:int list -> values:int array ->
  round:int -> msg Bn_dist_sim.Sync_net.adversary
(** Crash adversary: corrupted processes behave honestly (flood what they
    have seen — approximated as their initial value) until [round], then
    stay silent forever. Sending to a random prefix of processes in the
    crash round models mid-broadcast failure. *)

val agreement : int Bn_dist_sim.Sync_net.result -> bool
val validity : all_values:int list -> int Bn_dist_sim.Sync_net.result -> bool
(** Every decision is someone's initial value. *)
