(** E13 — mediator value: correlated equilibrium vs Nash (chicken).

    One registered experiment of {!Experiments.all}; everything beyond the
    registry triple (internal helpers, protocol scaffolding) is private. *)

val name : string
val title : string

val run : ?jobs:int -> unit -> unit
(** Regenerate the table(s) through {!Bn_util.Out}; [jobs] bounds the
    domain budget of any internal parallel loops. Output is byte-identical
    for every [jobs]. *)
