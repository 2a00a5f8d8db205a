(** Registry of the paper-reproduction experiments E1–E12 and the extension
    experiments E13–E17.

    Each entry regenerates one table/claim of Halpern (PODC 2008); the
    mapping to paper sections is in DESIGN.md §4 and the measured outcomes
    are recorded in EXPERIMENTS.md.

    Every experiment takes [?jobs] — the domain budget for its internal
    parallel loops — and prints through {!Bn_util.Out}, which is what lets
    {!run_all} render experiments concurrently and still emit the
    byte-exact serial transcript (pinned by [test/test_determinism.ml]). *)

type entry = string * string * (?jobs:int -> unit -> unit)
(** [(name, title, run)]. *)

val all : entry list
(** In registry (paper) order: E1 … E17. *)

val find : string -> entry option
(** Case-insensitive lookup by name. *)

val render : ?jobs:int -> string -> string option
(** [render id] runs the experiment with its output captured into a
    buffer and returns the transcript; [None] on unknown [id]. *)

val run_all : ?jobs:int -> unit -> unit
(** Render every experiment on a [jobs]-domain pool, then print the
    transcripts in registry order — byte-identical to the serial run. *)
