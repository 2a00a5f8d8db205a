(** Million-user Gnutella free-riding simulation on the SoA store.

    Same model as {!Gnutella.simulate} — Zipf kicks, share iff the kick
    beats the cost, queries routed with probability proportional to
    shared library size — rebuilt for n → ∞ populations: kicks and
    library prefix sums live in flat {!Bn_agents.Soa.F64} columns, a
    query routes in O(log users) (scan over the per-shard bases, then
    binary search within the owning shard), and serve counts cross
    shards through the {!Bn_agents.Soa.Exchange}, flushed once per
    query batch.

    At [shards = 1] the engine consumes the caller's generator in
    exactly the boxed loop's draw order, and the serially-built prefix
    sums make the binary search return the same host as
    {!Gnutella.simulate} on every query — so the returned
    {!Gnutella.stats} record is {e identical} (QCheck-pinned in test/test_scrip_p2p.ml). With
    [shards > 1] each shard draws kicks and queries from its own
    {!Bn_util.Prng.split} stream: a different (equally valid) sample of
    the same population model, byte-identical at any [?jobs]. *)

val batch_queries : int
(** Queries routed between exchange flushes (2²⁰): bounds the exchange
    buffer footprint at ~16 MB regardless of [params.queries]. *)

val simulate :
  ?jobs:int -> ?shards:int -> Bn_util.Prng.t -> Gnutella.params -> Gnutella.stats
(** [shards] defaults to 1 (the bitwise-compatible mode); [jobs]
    defaults to 1. Shard and batch boundaries depend only on
    [(users, queries, shards)], never on [jobs]. *)
