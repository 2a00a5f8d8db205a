(** The AST rule engine: D- (determinism), P- (purity/layering) and the
    syntactic H- (hygiene) rules, run over one parsed compilation unit.

    Rules are scoped by the file's repo-relative path (['/']-separated):
    the handful of sanctioned sites — [Bn_util.Prng] for randomness,
    [bench/] for wall clocks, [Bn_util.Pool]/[Bn_obs.Obs] for domains and
    atomics, [Bn_util.Out] for stdout, [lib/util]+[lib/obs] for top-level
    state — are carved out here, in code, so they need no suppression
    attributes. Everything else must either be fixed or carry an explicit
    [[@@@lint.allow]] (see {!Allow}).

    Tree-level rules (H001 missing [.mli], H003 dune layering) live in
    {!Lint} and {!Layering}; this module is purely per-file. *)

val in_dir : string -> string -> bool
(** [in_dir "lib/" file] — path-prefix scoping, shared with {!Lint}'s
    tree-level rules. *)

val check_structure : file:string -> Parsetree.structure -> Finding.t list
(** All D/P/H002 findings of an implementation, in source order. *)

val check_signature : file:string -> Parsetree.signature -> Finding.t list
(** Interfaces can only trip the syntactic rules (H002 opens). *)
