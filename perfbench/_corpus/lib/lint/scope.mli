(** Scope-aware expression walking, shared by the whole-program analyses.

    {!Callgraph} (edge collection), {!Effects} (seed detection) and
    {!Races} (captured-write detection) all need the same primitive: a
    walk over an expression that knows, at every node, which value names
    were bound {e between the walk's root and that node}. That is what
    separates a closure-local [ref] (fine in a parallel region) from a
    captured one (a race), and a chunk-derived index from a constant
    one. *)

type env
(** The set of value names bound since the walk's root. *)

val empty : env
val mem : string -> env -> bool
val add_pat : env -> Parsetree.pattern -> env

val pat_vars : Parsetree.pattern -> string list
(** All variables bound by a pattern ([Ppat_var] and [Ppat_alias]). *)

val flatten : Longident.t -> string list

val path : Longident.t -> string list
(** {!flatten} with a leading [Stdlib.] stripped, so [Stdlib.Random.int]
    and [Random.int] compare equal. *)

val idents : Parsetree.expression -> string list list
(** Every value-identifier occurrence in the expression, normalized. *)

val mentions : env -> Parsetree.expression -> bool
(** Does the expression mention any unqualified name bound in [env]?
    The "index is derived from the chunk/shard parameter" test. *)

val iter_expr :
  env:env -> (env:env -> Parsetree.expression -> unit) -> Parsetree.expression -> unit
(** Pre-order walk calling the callback on every expression node with
    the bindings accumulated from the root. Handles every binding form
    ([fun], [let], [match]/[try]/[function] cases, [for], [let+]);
    module expressions embedded in expressions are walked for the value
    bindings they contain. *)
