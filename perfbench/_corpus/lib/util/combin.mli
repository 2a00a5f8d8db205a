(** Combinatorial enumeration used by the equilibrium checkers.

    Coalition and deviation checks quantify over subsets of players and
    joint action profiles; these enumerators keep that logic in one place. *)

val subsets_of_size : int -> int -> int list list
(** [subsets_of_size n k] lists all size-[k] subsets of [{0, …, n−1}] in
    lexicographic order, each sorted ascending. *)

val subsets_up_to : int -> int -> int list list
(** [subsets_up_to n k] lists all non-empty subsets of size ≤ [k]. *)

val profiles : int array -> int array list
(** [profiles dims] lists all tuples [p] with [0 ≤ p.(i) < dims.(i)],
    in row-major order. Arrays are fresh. *)

val iter_profiles : int array -> (int array -> unit) -> unit
(** Iteration form of {!profiles}; the callback's array is reused, copy it
    if kept. *)

val joint_assignments : int list -> int array -> (int * int) list list
(** [joint_assignments members dims] lists, for a coalition given by player
    indices [members], every joint assignment of an action in
    [0 … dims.(i)−1] to each member [i], as association lists. *)

val iter_joint_assignments : int array -> int array -> (int array -> int -> unit) -> unit
(** In-place iteration form of {!joint_assignments}: enumerates every joint
    assignment to [members] (an array of player indices) in the same
    row-major order — first member outermost — without materializing any
    list. The callback receives [acts] (the action of [members.(j)] is
    [acts.(j)]; the array is reused, copy if kept) and the lowest position
    [j] whose action changed since the previous call (positions above [j]
    were reset to 0; [0] on the first call), which lets callers maintain
    prefix state — e.g. an incrementally shifted flat payoff index — in
    amortized O(1) per assignment. Empty [members] yields the single empty
    assignment. *)

val binomial : int -> int -> int
(** Binomial coefficient (exact, for small arguments). *)
