(** Whole-program effect inference over the {!Callgraph}.

    Per-def effect signatures are seeded syntactically — the same
    primitives the D/P rules police per file (Stdlib [Random], clock
    reads, [Gc], I/O, [Domain]/[Atomic], writes to structure-level
    mutable state, Bigarray stores) — and propagated transitively along
    call edges to a fixpoint, so an effect smuggled through a helper one
    call layer down is visible at every caller. Calls into [lib/obs]
    are an effect boundary: the instrumentation layer is audited to
    leave program output untouched, so its internal clock/GC/atomic use
    does not poison instrumented callers.

    Rules:
    - E001 — a call from a solver/kernel module ([lib/game], [lib/lp],
      [lib/robust], [lib/byzantine], [lib/agents], [lib/scrip],
      [lib/p2p]) to a function transitively reaching randomness or the
      clock, outside the Prng-threaded entry points.
    - E002 — a Det-counter region (a def bumping an [Obs] counter or
      sketch of kind [Det]) transitively reaching randomness or the
      clock. *)

type table

val infer : Callgraph.t -> table * Finding.t list
(** Effect table plus E001/E002 findings, in deterministic order. *)

val has_global_mut : table -> string -> bool
(** Does the def's transitive signature include [global_mut]? Used by
    {!Races} to flag helpers that smuggle shared-state writes into a
    parallel closure. *)

val to_json : Callgraph.t -> table -> string
(** Schema [bn-effects/1]: a summary block (per-effect def counts) plus
    one record per def with a non-empty signature. Byte-stable. *)
