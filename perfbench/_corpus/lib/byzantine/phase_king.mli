(** Phase-King Byzantine agreement (Berman–Garay–Perry).

    A polynomial-message alternative to EIG: [t+1] phases of two rounds
    each, phase [p] "ruled" by process [p]. The simple two-round variant
    implemented here tolerates [t < n/4] Byzantine faults — a deliberately
    different trade-off than EIG's [t < n/3] with exponential messages,
    used by experiment E4's message-complexity comparison. *)

type msg = Value of int | King of int

type state

val protocol :
  n:int -> t:int -> values:int array ->
  (state, msg, int) Bn_dist_sim.Sync_net.protocol

val run :
  ?adversary:msg Bn_dist_sim.Sync_net.adversary ->
  ?faults:msg Bn_dist_sim.Sync_net.fault_plan ->
  n:int -> t:int -> values:int array -> unit ->
  int Bn_dist_sim.Sync_net.result
(** Runs 2(t+1) rounds. *)

val lying_adversary : corrupted:int list -> claim:int -> msg Bn_dist_sim.Sync_net.adversary
(** Corrupted processes always report [claim] (and, as king, crown it). *)

val agreement : int Bn_dist_sim.Sync_net.result -> bool
val validity : honest_values:int list -> int Bn_dist_sim.Sync_net.result -> bool
