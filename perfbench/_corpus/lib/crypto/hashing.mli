(** Toy cryptographic primitives for the simulated protocols.

    These are {e simulation-grade}: collision-resistant enough for test
    workloads and deliberately simple. The mediator results that rely on
    "cryptography and polynomially-bounded players" only need the
    {e functionality} of commitments and signatures inside the simulator —
    see DESIGN.md §3 on substitutions. *)

val hash : string -> int64
(** FNV-1a 64-bit with an extra avalanche round. *)

val hash_ints : int list -> int64
(** Hash of a list of ints with unambiguous framing. *)

(** Hash-based commitments: [commit v nonce] binds to [(v, nonce)]. *)
module Commit : sig
  type t = int64

  val commit : value:int -> nonce:int -> t
  val verify : t -> value:int -> nonce:int -> bool
end

(** Identification-based signatures backed by per-signer secrets held by the
    simulator: unforgeable by construction for in-simulation adversaries
    that do not know the signing secret. *)
module Pki : sig
  type t
  type signature = int64

  val create : Bn_util.Prng.t -> n:int -> t
  (** Fresh key pairs for players [0 … n−1]. *)

  val sign : t -> signer:int -> msg:string -> signature
  val verify : t -> signer:int -> msg:string -> signature -> bool

  val forge_attempt : Bn_util.Prng.t -> signature
  (** What an adversary without the key can do: a random tag. Verification
    succeeds with probability ≈ 2^−64. *)
end
