(** Small dense linear algebra over floats.

    Enough machinery for support-enumeration Nash solvers and least-squares
    style computations: Gaussian elimination with partial pivoting. Matrices
    are arrays of rows. *)

val solve : float array array -> float array -> float array option
(** [solve a b] solves the square system [a x = b]. [None] if (numerically)
    singular. Inputs are not mutated. *)

val mat_vec : float array array -> float array -> float array
(** Matrix-vector product. *)

val dot : float array -> float array -> float
(** Inner product of equal-length vectors. *)

val transpose : float array array -> float array array
(** Matrix transpose (rectangular allowed). *)

val identity : int -> float array array
(** Identity matrix. *)

