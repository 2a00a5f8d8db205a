(** Finite n-player normal-form (strategic) games.

    A game is a set of players [0 … n−1], a finite action set per player and
    a payoff vector per pure action profile. Payoffs are materialized once at
    construction into flat [Bigarray] float64 storage — one C-layout array
    per player, indexed row-major by profile — so lookups during equilibrium
    checks are O(1) and kernels ({!Flat}) run unboxed loops over them. *)

type t

val create :
  ?player_names:string array ->
  ?action_names:string array array ->
  actions:int array ->
  (int array -> float array) ->
  t
(** [create ~actions u] builds a game with [Array.length actions] players
    where player [i] has [actions.(i)] actions and [u profile] gives the
    payoff vector (one entry per player) of a pure profile. [u] is evaluated
    once per profile at construction time.
    @raise Invalid_argument if some [actions.(i) <= 0] or [u] returns a
    vector of the wrong arity. *)

val of_bimatrix : float array array -> float array array -> t
(** Two-player game from payoff matrices [a] (row player) and [b] (column
    player); [a.(i).(j)] is the row player's payoff when row [i] meets
    column [j]. Matrices must be rectangular with equal shape. *)

val n_players : t -> int
val num_actions : t -> int -> int
val actions : t -> int array
(** A fresh copy of the action-count vector. *)

val player_name : t -> int -> string
val action_name : t -> int -> int -> string

val payoff : t -> int array -> int -> float
(** [payoff g profile i] is player [i]'s payoff at a pure profile. *)

val payoff_vector : t -> int array -> float array
(** All payoffs at a pure profile (fresh array). *)

(** {2 Index-based access}

    The payoff table is flat and row-major: a pure profile [p] lives at
    flat index [Σᵢ p.(i) · stride i]. Hot loops (deviation search,
    support-product expectation) keep a running flat index and pay one
    array read per evaluation instead of re-walking the profile. *)

val index_of : t -> int array -> int
(** Flat table index of a pure profile (row-major). *)

val table_size : t -> int
(** Number of pure profiles, [∏ᵢ num_actions i]. *)

val stride : t -> int -> int
(** [stride g i] is the flat-index weight of player [i]'s action: changing
    [i]'s action from [a] to [a'] moves the index by [(a' − a) · stride g i]. *)

val shift_index : t -> int -> player:int -> from_:int -> to_:int -> int
(** [shift_index g idx ~player ~from_ ~to_] is the flat index obtained from
    [idx] by re-pointing [player]'s coordinate from action [from_] to
    [to_] — O(1), the stride-delta update used by the deviation scanner.
    A deviation touching [m] coordinates composes [m] shifts. *)

val payoff_by_index : t -> int -> int -> float
(** [payoff_by_index g idx i] is player [i]'s payoff at the profile with
    flat index [idx] — a single table read. *)

val payoff_row : t -> int -> float array
(** The payoff vector at a flat index (fresh array — storage is
    player-major, so a profile's row is gathered, not aliased). *)

val profile_of_index : t -> int -> int array
(** Decode a flat index back into a fresh pure profile;
    inverse of {!index_of}. *)

val iter_profiles : t -> (int array -> unit) -> unit
(** Iterate all pure profiles; the array passed to the callback is reused. *)

val profiles : t -> int array list
(** All pure profiles (fresh arrays). *)

val map_payoffs : (int array -> float array -> float array) -> t -> t
(** Pointwise payoff transformation (e.g. adding computation charges). *)

val is_zero_sum : ?eps:float -> t -> bool
(** Whether payoffs sum to (nearly) zero at every profile. Stops at the
    first counterexample. *)

val is_symmetric_2p : ?eps:float -> t -> bool
(** For two-player games: whether [u1(i,j) = u2(j,i)] everywhere. Stops at
    the first counterexample. *)

(** {2 Flat kernel}

    Raw access to the payoff storage for unboxed hot loops. [table g i] is
    player [i]'s payoffs over all pure profiles, indexed by the same
    row-major flat index as {!payoff_by_index}: profile [p] lives at
    [Σⱼ p.(j) · stride g j]. The array is the game's own storage — callers
    must treat it as read-only. Use from outside the sanctioned kernel
    modules trips the [P004] lint rule. *)
module Flat : sig
  type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

  val table : t -> int -> ba
end

val pp : Format.formatter -> t -> unit
(** Render a two-player game as a payoff matrix, or a summary otherwise. *)
