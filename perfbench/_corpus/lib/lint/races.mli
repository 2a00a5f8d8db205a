(** Parallel-region race detection.

    A parallel region is a closure literal passed to a [Pool] entry
    point ([map], [map_array], [map_array_steal], [iter_grid],
    [find_first]); the SoA simulator phases are [Pool.iter_grid] calls
    and are covered by the same detection.

    - R001 — write to captured mutable state (ref, mutable field,
      Hashtbl, array/Bytes/Bigarray cell at an index not derived from
      the chunk parameter), directly or via a call to a function whose
      inferred effects include [global_mut].
    - R002 — Prng draw from captured generator state; [Prng.split] /
      [copy] / [create] are the sanctioned pure derivations.
    - R003 — SoA column write at a non-shard-derived index, or a
      whole-column fill, inside a parallel closure; cross-shard traffic
      must use the batched [Soa.Exchange] API. *)

val check :
  Callgraph.t -> Effects.table -> (string * Parsetree.structure) list -> Finding.t list
(** Findings over every parallel closure in the parsed tree, in
    deterministic {!Finding.compare} order. *)
