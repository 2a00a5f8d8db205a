(** Polynomials over GF(p), coefficient order lowest-first. *)

type t = int array
(** [t.(i)] is the coefficient of x^i; the zero polynomial is [[||]] or any
    all-zero array. *)

val degree : t -> int
(** Degree; −1 for the zero polynomial. *)

val eval : t -> int -> int
(** Horner evaluation at a field element. *)

val add : t -> t -> t
val mul : t -> t -> t
val scale : int -> t -> t

val divmod : t -> t -> t * t
(** Euclidean division: [(q, r)] with [a = q·b + r], [deg r < deg b].
    @raise Division_by_zero if [b] is the zero polynomial. *)

val random : Bn_util.Prng.t -> degree:int -> secret:int -> t
(** Uniformly random polynomial of exactly the given [degree] (top
    coefficient nonzero for degree ≥ 1) with constant term [secret]. *)

val interpolate : (int * int) list -> t
(** Lagrange interpolation through distinct points.
    @raise Invalid_argument on duplicate x-coordinates. *)

val equal : t -> t -> bool
(** Equality up to trailing zeros. *)
