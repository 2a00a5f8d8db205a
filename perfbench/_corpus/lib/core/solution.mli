(** Unified solution-concept checker.

    One entry point per family, each subsuming Nash equilibrium as its
    degenerate case — the library's headline API: Nash is (1,0)-robust,
    classical games are machine games with free computation, and a standard
    extensive game is the canonical game with awareness. *)

type concept =
  | Nash
  | Resilient of int  (** k-resilient. *)
  | Immune of int  (** t-immune. *)
  | Robust of int * int  (** (k,t)-robust. *)

val check :
  ?eps:float -> Bn_game.Normal_form.t -> Bn_game.Mixed.profile -> concept -> bool
(** Checks a mixed profile of a normal-form game against a concept.
    [check g p Nash = check g p (Robust (1, 0))]. *)

val classify :
  ?max_k:int -> ?max_t:int -> Bn_game.Normal_form.t -> Bn_game.Mixed.profile ->
  [ `Not_nash | `Robust of int * int ]
(** The strongest (max-k, then max-t) robustness the profile satisfies,
    scanning k ≤ [max_k] and t ≤ [max_t] (defaults: number of players). *)

val computational_nash :
  ?eps:float -> Bn_machine.Machine_game.t -> choice:int array -> bool
(** Computational Nash equilibrium of a machine game (§3). *)

val generalized_nash :
  ?eps:float -> Bn_awareness.Awareness.t -> Bn_awareness.Awareness.profile -> bool
(** Generalized Nash equilibrium of a game with awareness (§4). *)

val pp_concept : Format.formatter -> concept -> unit
