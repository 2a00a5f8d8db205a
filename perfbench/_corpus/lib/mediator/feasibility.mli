(** The Abraham–Dolev–Gonen–Halpern characterization of when mediators can
    be implemented by cheap talk (paper §2, the nine bullets).

    [classify ~n ~k ~t assumptions] walks the thresholds in the order the
    paper states them and returns the strongest implementation the regime
    admits, or the impossibility that blocks it, together with the bullet
    it comes from. *)

type assumptions = {
  utilities_known : bool;
      (** Whether the protocol may depend on players' utility functions. *)
  punishment : bool;  (** A (k+t)-punishment strategy exists. *)
  broadcast : bool;  (** Broadcast channels are available. *)
  crypto : bool;  (** Cryptography + polynomially-bounded players. *)
  pki : bool;  (** A public-key infrastructure exists (implies crypto). *)
}

val no_assumptions : assumptions
(** Everything false: bare cheap talk with unknown utilities. *)

val all_assumptions : assumptions

type running_time =
  | Bounded  (** Fixed number of rounds, independent of utilities. *)
  | Bounded_expected  (** Bounded expectation, independent of utilities. *)
  | Finite_expected  (** Finite expectation, independent of utilities. *)
  | Utility_dependent  (** Expectation necessarily depends on utilities/ε. *)

type verdict =
  | Implementable of {
      exact : bool;  (** true = exact implementation, false = ε. *)
      running_time : running_time;
      needs : string list;  (** Assumptions the construction uses. *)
      bullet : int;  (** Which of the paper's nine bullets (1-based). *)
    }
  | Impossible of { reason : string; bullet : int }

val classify : n:int -> k:int -> t:int -> assumptions -> verdict
(** Requires [n ≥ 1], [k ≥ 1], [t ≥ 0]: a (k,t)-robust equilibrium with
    k = 0 is not an equilibrium notion ((1,0) is Nash).
    @raise Invalid_argument otherwise. *)

val describe : verdict -> string
(** One-line rendering for tables. *)

val bullet_text : int -> string
(** The paper's statement being applied (abridged). *)

(** {1 Asynchronous cheap talk}

    The successor paper (Abraham–Dolev–Geffner–Halpern, arXiv:1806.01214)
    moves the characterization to asynchronous networks: a (k,t)-robust
    mediator is implementable by asynchronous cheap talk iff
    [n > 4(k+t)]. The executable protocol ({!Async_cheap_talk}) makes the
    two impossibility regimes distinguishable: with [3(k+t) < n ≤ 4(k+t)]
    decoding stalls only when [k+t] parties fall silent, while with
    [n ≤ 3(k+t)] it stalls even in fault-free executions. *)

type async_verdict =
  | Async_implementable  (** [n > 4(k+t)]. *)
  | Async_breaks_under_faults
      (** [3(k+t) < n ≤ 4(k+t)]: a schedule silencing [k+t] parties leaves
          fewer than [3(k+t)+1] shares, below the decoding bound. *)
  | Async_breaks_fault_free
      (** [n ≤ 3(k+t)]: even all [n] shares are too few to decode. *)

val classify_async : n:int -> k:int -> t:int -> async_verdict
(** Same domain as {!classify}.
    @raise Invalid_argument unless [n ≥ 1], [k ≥ 1], [t ≥ 0]. *)

val describe_async : async_verdict -> string
