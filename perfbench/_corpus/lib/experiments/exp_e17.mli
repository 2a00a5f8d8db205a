(** E17 (extension) — million-agent scrip & free riding on the sharded
    SoA store: the {!Scrip_sweep} goodness-of-fit ladder against the
    analytic steady state, the mixed hoarder/altruist population,
    Gnutella free riding at scale, and the best-response cutoff sweep. *)

val name : string
val title : string
val run : ?jobs:int -> unit -> unit
