(** Strategy dominance and iterated elimination.

    Used both as a classical solution concept and to preprocess games before
    the heavier robustness checks. *)

type mode = Strict | Weak

val dominates :
  ?mode:mode -> Normal_form.t -> player:int -> int -> int -> bool
(** [dominates g ~player a b] — does action [a] dominate action [b] for
    [player]? [Strict]: strictly better against every opposing profile.
    [Weak]: never worse and somewhere strictly better. *)

val dominated_actions : ?mode:mode -> Normal_form.t -> player:int -> int list
(** Actions of [player] dominated by some other currently available
    action. *)

val iterated_elimination :
  ?mode:mode -> Normal_form.t -> (Normal_form.t * int list array)
(** Iteratively deletes dominated actions (for [Weak], one action per round
    to keep the procedure well-defined) until a fixed point. Returns the
    reduced game and, per player, the surviving original action indices in
    ascending order. *)

val solves_by_dominance : ?mode:mode -> Normal_form.t -> int array option
(** If iterated elimination leaves exactly one profile, the surviving
    original profile. *)
