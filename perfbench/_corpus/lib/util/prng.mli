(** Deterministic pseudo-random number generator (SplitMix64).

    All randomized components of the library take an explicit [Prng.t] so
    that every simulation, sampled protocol run, and property test is
    reproducible from a seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed. Equal seeds give
    equal streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> int -> t
(** [split t i] derives the [i]-th child generator from [t]'s current
    state {e without advancing [t]}: it is a pure function of the state
    and [i], so [split t i] called before, after, or concurrently with any
    other split of [t] always yields the same stream. Distinct indices
    give streams that are statistically independent of each other and of
    the remainder of [t]'s own stream. This is the seed-derivation
    contract the parallel {!Pool} relies on for bit-identical results at
    any domain count. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool
(** Fair coin. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val exponential : t -> float -> float
(** [exponential t lambda] samples Exp(lambda). *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success of a
    Bernoulli(p) sequence; [p] must be in (0, 1]. *)
