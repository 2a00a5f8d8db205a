(** Linear algebra over GF(p): Gaussian elimination.

    Used by Berlekamp–Welch decoding, which reconstructs a shared secret in
    the presence of corrupted (Byzantine) shares. *)

val solve : int array array -> int array -> int array option
(** [solve a b] returns some solution of [a x = b] over GF(p), or [None] if
    the system is inconsistent. For underdetermined systems, free variables
    are set to 0. [a] is rectangular: rows are equations. *)

val rank : int array array -> int
(** Rank of a matrix over GF(p). *)
