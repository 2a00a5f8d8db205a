(** E16 (extension) — asynchronous cheap-talk mediators: the regime sweep
    of {!Mediator_sweep} (grid classification, sequential checks,
    Explore-witnessed boundaries). *)

val name : string
val title : string
val run : ?jobs:int -> unit -> unit
