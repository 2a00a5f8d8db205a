(** Parsing small games from text — the CLI's input format.

    Bimatrix syntax: rows separated by [|], cells by whitespace, the two
    payoffs in a cell by a comma. Example (prisoner's dilemma):

    {v 3,3 0,5 | 5,0 1,1 v} *)

val bimatrix : string -> Normal_form.t
(** @raise Invalid_argument with a human-readable message on syntax errors
    or ragged rows. *)

val bimatrix_opt : string -> Normal_form.t option
(** [None] instead of an exception. *)
