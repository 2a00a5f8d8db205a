(** Bn_lint — the determinism/purity static-analysis pass.

    Parses every [.ml]/[.mli] under [lib/], [bin/], [bench/] and [test/]
    into Parsetree exactly once and runs three layers over the shared
    ASTs: the per-file {!Rules} engine, the tree-level hygiene checks
    (H001 missing interfaces, H003 dune layering), and the whole-program
    analyses — a {!Callgraph}, transitive {!Effects} inference
    (E001/E002) and the {!Races} parallel-region detector (R001–R003).
    Together they turn the byte-identical-at-any[-j] contract into a
    compile-time property instead of one the golden tests discover after
    the fact. Driven by [bin/lint.exe]; [dune runtest] asserts the tree
    itself is lint-clean (see [test/test_lint.ml]).

    Reports are deterministic: findings are sorted by
    (file, line, col, rule), paths are root-relative with ['/']
    separators, and nothing in the output depends on the clock or the
    environment — the [--json], [--callgraph-json] and [--effects]
    reports are byte-stable for a fixed tree. *)

type report = {
  findings : Finding.t list;  (** sorted; suppressed findings included *)
  files_scanned : int;  (** [.ml]/[.mli] files parsed *)
  dune_files : int;  (** dune files checked for layering *)
  graph : Callgraph.t;  (** the tree-wide call graph *)
  effects : Effects.table;  (** inferred transitive effect signatures *)
}

exception Invalid_root of string
(** Raised by {!run} / {!parse_mls} when the root does not exist or is
    not a directory — the driver maps it to a usage error (exit 2)
    rather than reporting a silently empty clean tree. *)

val lint_source : file:string -> string -> Finding.t list
(** Run the per-file rules (with suppression applied) over one unit given
    as a string; [file] is its repo-relative path, which determines rule
    scoping and [.ml]/[.mli] parsing. Unparsable sources yield a single
    E000 finding. The tree-level and whole-program rules (H001/H003,
    E/R) need {!run}. *)

val run : root:string -> report
(** Lint the tree rooted at [root] (the directory holding [lib/] …). *)

val unsuppressed : report -> Finding.t list

val parse_mls : root:string -> string list * (string * Parsetree.structure) list
(** The dune library names and parsed [.ml] files of the tree — the
    input the whole-program analyses run on, exposed so the bench can
    time {!Callgraph.build} + {!Effects.infer} without re-walking. *)

val find_root : ?start:string -> unit -> string option
(** Nearest ancestor of [start] (default: the current directory)
    containing a [dune-project] — how the driver, bench and tests locate
    the tree from wherever dune runs them. *)

(** {1 Rendering} *)

val render_human : report -> string
(** One line per unsuppressed finding plus a summary tail; ends with a
    newline. *)

val to_json : report -> string
(** The machine report: schema [bn-lint/1] with a summary block
    (per-rule unsuppressed counts included) and one record per finding,
    suppressed ones carrying their reason. RFC 8259-valid and
    byte-stable for a fixed tree. *)

val callgraph_json : report -> string
(** {!Callgraph.to_json} of the report's graph (schema
    [bn-callgraph/1]). *)

val effects_json : report -> string
(** {!Effects.to_json} of the report's effect table (schema
    [bn-effects/1]). *)

val rules_table : unit -> string
(** The registry as an aligned [ID severity summary] listing. *)
