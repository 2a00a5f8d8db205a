(** Summary statistics for simulation outputs. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val variance : float list -> float
(** Population variance; 0 on lists of length < 2. *)

val stddev : float list -> float
(** Square root of {!variance}. *)

val median : float list -> float
(** Median (average of the two middle values for even lengths); 0 on []. *)

val percentile : float -> float list -> float
(** [percentile p xs] for [p] in [0,100], nearest-rank with interpolation. *)

val gini : float list -> float
(** Gini coefficient of a list of non-negative values (inequality of the
    Gnutella sharing load); 0 on degenerate input. *)

val histogram : bins:int -> float list -> (float * float * int) array
(** [histogram ~bins xs] returns [(lo, hi, count)] per bin over the data
    range. Empty array for empty input or [bins <= 0]. *)
