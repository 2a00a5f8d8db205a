(** Plain-text table rendering for the experiment harness.

    Every experiment in [bench/] prints its reproduction of a paper
    table/series through this module, so all output is uniformly formatted
    and greppable. *)

type t
(** A table under construction. *)

val create : title:string -> string list -> t
(** [create ~title headers] starts a table. *)

val add_row : t -> string list -> unit
(** Appends a row; short rows are padded with empty cells. *)

val add_float_row : t -> string -> float list -> unit
(** Row with a string label followed by floats rendered with 4 decimals. *)

val render : t -> string
(** ASCII rendering with a title line, a header rule, and aligned columns. *)

val print : t -> unit
(** [render] followed by output through {!Out} (stdout, or the current
    capture buffer) with a trailing blank line. *)

val fmt_float : float -> string
(** Canonical float formatting used by {!add_float_row}. *)
