(** E9 — games with awareness: the paper's Figures 1-3 example.

    One registered experiment of {!Experiments.all}; everything beyond the
    registry triple (internal helpers, protocol scaffolding) is private. *)

val name : string
val title : string

val run : ?jobs:int -> unit -> unit
(** Regenerate the table(s) through {!Bn_util.Out}; [jobs] bounds the
    domain budget of any internal parallel loops. Output is byte-identical
    for every [jobs]. *)
