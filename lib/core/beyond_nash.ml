(** Beyond Nash Equilibrium — solution concepts for the 21st century.

    Umbrella module re-exporting the whole library under one namespace.
    The three families of solution concepts from Halpern (PODC 2008):

    - {!Robust}: k-resilient / t-immune / (k,t)-robust equilibria (§2),
      with {!Mediator}, {!Byzantine}, {!Crypto} and {!Dist_sim} as the
      machinery for implementing mediators by cheap talk;
    - {!Machine}, {!Machine_game}, {!Repeated}: computational games (§3);
    - {!Awareness}: games with possibly unaware players and generalized
      Nash equilibrium (§4).

    {!Solution} gives the unified checker API. *)

[@@@lint.allow "H001"
  "umbrella module: the whole body is module aliases, so an .mli would be a line-for-line \
   duplicate reviewed nowhere"]

(* Utilities *)
module Obs = Bn_obs.Obs
module Obsdiff = Bn_obs.Obsdiff
module Prng = Bn_util.Prng
module Pool = Bn_util.Pool
module Out = Bn_util.Out
module Dist = Bn_util.Dist
module Linalg = Bn_util.Linalg
module Combin = Bn_util.Combin
module Stats = Bn_util.Stats
module Tab = Bn_util.Tab
module Tbl = Bn_util.Tbl
module Simplex = Bn_lp.Simplex

(* Game representations and classical solution concepts *)
module Normal_form = Bn_game.Normal_form
module Mixed = Bn_game.Mixed
module Nash = Bn_game.Nash
module Kernel_game = Bn_game.Kernel_game
module Dominance = Bn_game.Dominance
module Zero_sum = Bn_game.Zero_sum
module Correlated = Bn_game.Correlated
module Rationalizable = Bn_game.Rationalizable
module Parse = Bn_game.Parse
module Learning = Bn_game.Learning
module Games = Bn_game.Games
module Bayesian = Bn_bayesian.Bayesian
module Extensive = Bn_extensive.Extensive
module Canned = Bn_extensive.Canned

(* §2: robustness and mediators *)
module Robust = Bn_robust.Robust
module Mediated = Bn_mediator.Mediated
module Feasibility = Bn_mediator.Feasibility
module Cheap_talk = Bn_mediator.Cheap_talk
module Async_cheap_talk = Bn_mediator.Async_cheap_talk
module Sequential = Bn_mediator.Sequential
module Ba_game = Bn_mediator.Ba_game
module Rational_ss = Bn_mediator.Rational_ss
module Sunspot = Bn_mediator.Sunspot
module Sync_net = Bn_dist_sim.Sync_net
module Async_net = Bn_dist_sim.Async_net
module Faults = Bn_dist_sim.Faults
module Explore = Bn_dist_sim.Explore
module Eig = Bn_byzantine.Eig
module Dolev_strong = Bn_byzantine.Dolev_strong
module Phase_king = Bn_byzantine.Phase_king
module Floodset = Bn_byzantine.Floodset
module Field = Bn_crypto.Field
module Poly = Bn_crypto.Poly
module Shamir = Bn_crypto.Shamir
module Hashing = Bn_crypto.Hashing
module Fieldmat = Bn_crypto.Fieldmat
module Coin_flip = Bn_crypto.Coin_flip

(* §3: computation *)
module Machine = Bn_machine.Machine
module Machine_game = Bn_machine.Machine_game
module Primality = Bn_machine.Primality
module Comp_roshambo = Bn_machine.Comp_roshambo
module Automaton = Bn_repeated.Automaton
module Repeated = Bn_repeated.Repeated
module Frpd = Bn_repeated.Frpd
module Tournament = Bn_repeated.Tournament

(* §4: awareness *)
module Awareness = Bn_awareness.Awareness
module Aware_examples = Bn_awareness.Aware_examples

(* §5 applications *)
module Scrip = Bn_scrip.Scrip
module Scrip_soa = Bn_scrip.Scrip_soa
module Steady_state = Bn_scrip.Steady_state
module Gnutella = Bn_p2p.Gnutella
module Gnutella_soa = Bn_p2p.Gnutella_soa
module Soa = Bn_agents.Soa

module Solution = Solution
