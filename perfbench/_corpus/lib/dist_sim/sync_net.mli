(** Synchronous round-based message-passing network simulator.

    Computation proceeds in lockstep rounds: every process emits messages,
    the network delivers them all, every process updates its state. Channels
    are private and authenticated (the receiver learns the true sender), as
    assumed by the cheap-talk results in paper §2. A {e broadcast channel}
    — a primitive that forces a sender to send the same value to everyone —
    is modelled by the [All] destination, which the simulator delivers
    identically to all processes, including for corrupted senders (that is
    exactly the extra power the n > 2k+2t regime assumes).

    Faulty behaviour is injected with an {!adversary}, which fully controls
    the corrupted processes: it sees their inboxes and chooses their
    outgoing messages (equivocation over unicast channels is allowed). *)

type dest = To of int | All

type ('s, 'm, 'o) protocol = {
  init : int -> 's;  (** Initial state from the process id. *)
  send : round:int -> me:int -> 's -> (dest * 'm) list;
      (** Messages to emit at the start of a round. *)
  recv : round:int -> me:int -> 's -> (int * 'm) list -> 's;
      (** State update given the round's inbox as (sender, message). The
          inbox is sorted by sender id; broadcast copies are included. *)
  output : me:int -> 's -> 'o option;  (** Decision, once reached. *)
}

type 'm adversary = {
  corrupted : int list;
  behave :
    round:int -> me:int -> inbox:(int * 'm) list -> (dest * 'm) list;
      (** Outgoing traffic of corrupted process [me] this round. *)
}

val silent : int list -> 'm adversary
(** Crash-from-the-start adversary: corrupted processes never send. *)

type 'm fault_plan = {
  crashed : round:int -> int -> bool;
      (** [crashed ~round p]: has [p] crash-stopped by [round]? Must be
          monotone in [round]. A crashed process sends nothing, stops
          updating its state, and produces no output. *)
  on_link : round:int -> src:int -> dst:int -> 'm -> (int * 'm) list;
      (** Rewrites one attempted delivery into the [(delivery_round,
          payload)] list the network actually performs: [[]] drops it, two
          entries duplicate it, a later round delays it (messages delayed
          past the final round are lost), a changed payload corrupts it.
          The identity is [[(round, m)]]. *)
}
(** Environment faults, orthogonal to the process-level {!adversary}.
    {!Bn_dist_sim.Faults.plan} compiles declarative fault schedules into
    this; honest-protocol code is unaffected. *)

type 'o result = {
  outputs : 'o option array;  (** Per-process decision (index = id). *)
  rounds_run : int;
  messages_sent : int;  (** Unicast count; a broadcast counts n messages. *)
  messages_dropped : int;
      (** Deliveries suppressed by the fault plan (drops, partition
          losses, and delays past the horizon). 0 without [?faults]. *)
}

val run :
  ?adversary:'m adversary ->
  ?faults:'m fault_plan ->
  n:int ->
  rounds:int ->
  ('s, 'm, 'o) protocol ->
  'o result
(** Runs [rounds] synchronous rounds with processes [0 … n−1]. Corrupted
    processes' protocol logic is replaced by the adversary, but their
    inboxes are still computed and exposed to it. The fault plan applies
    to all traffic — honest and adversarial alike — after it is emitted;
    without [?faults] the simulation is byte-identical to previous
    behaviour. *)
