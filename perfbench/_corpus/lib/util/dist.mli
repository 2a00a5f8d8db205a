(** Finite discrete probability distributions.

    A distribution is a normalized association list from values to strictly
    positive probabilities. Equal values are merged by the smart
    constructors, so distributions over comparable values have a canonical
    support. This is the common currency between the game, Bayesian,
    mediator and awareness libraries. *)

type 'a t
(** A finite distribution over ['a]. *)

val return : 'a -> 'a t
(** Point mass. *)

val of_list : ('a * float) list -> 'a t
(** Normalizes weights (they must be non-negative, with positive total) and
    merges duplicate values using structural equality.
    @raise Invalid_argument on an empty or all-zero list, or a negative
    weight. *)

val uniform : 'a list -> 'a t
(** Uniform over a non-empty list (duplicates merged). *)

val bernoulli : float -> bool t
(** [bernoulli p] puts mass [p] on [true]. *)

val support : 'a t -> 'a list
(** Values with positive probability. *)

val mass : 'a t -> 'a -> float
(** Probability of a value (0 if outside the support). *)

val to_list : 'a t -> ('a * float) list
(** Underlying (value, probability) pairs; probabilities sum to 1. *)

val map : ('a -> 'b) -> 'a t -> 'b t
(** Push-forward; merges collisions. *)

val bind : 'a t -> ('a -> 'b t) -> 'b t
(** Monadic composition of stochastic kernels. *)

val product : 'a t -> 'b t -> ('a * 'b) t
(** Independent product. *)

val product_list : 'a t list -> 'a list t
(** Independent product of a list of distributions. *)

val expect : ('a -> float) -> 'a t -> float
(** Expectation of a real-valued function. *)

val sample : Prng.t -> 'a t -> 'a
(** Draw one value. *)

val tv_distance : 'a t -> 'a t -> float
(** Total-variation distance: half the L1 distance between mass functions. *)

val filter : ('a -> bool) -> 'a t -> 'a t option
(** Conditioning; [None] if the event has probability 0. *)

val is_uniform : ?eps:float -> 'a t -> bool
(** Whether all support points carry (nearly) equal mass. *)
