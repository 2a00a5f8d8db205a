(** Whole-program call graph over the parsed tree.

    Structure-level value bindings (top of a file or inside named
    sub-modules) become {e defs}; every identifier occurrence in a def's
    body that resolves to another def becomes an edge. Resolution is
    best-effort and purely syntactic: enclosing module scope first, then
    the file's [module X = …] aliases (followed through chains such as
    the [Beyond_nash] facade, with bounded fuel), then the tree-wide
    capitalized-basename map; dune library wrapper prefixes
    ([Bn_util.Pool.map]) are stripped using the library names. Paths
    into Stdlib, opam libraries or local bindings resolve to nothing.

    Everything is deterministic: defs are sorted by id, edges by
    (caller, callee, position), and {!to_json} is byte-stable for a
    fixed tree. *)

type def = {
  id : string;  (** [file ^ "#" ^ dotted path], the stable key *)
  file : string;
  path : string list;  (** module path within the file, then the name *)
  line : int;
  is_fun : bool;  (** binds a syntactic function (fun/function) *)
  body : Parsetree.expression;
  scope : string list;  (** enclosing module path within the file *)
}

type edge = { caller : string; callee : string; eline : int; ecol : int }

type t

val build : libs:string list -> (string * Parsetree.structure) list -> t
(** [build ~libs mls] over the parsed [.ml] files ([libs] are the dune
    library names, used to strip wrapper-module prefixes). *)

val defs : t -> def list
(** Sorted by id. *)

val find : t -> string -> def option
val edges : t -> edge list

val resolve :
  t -> file:string -> scope:string list -> env:Scope.env -> string list -> def option
(** Resolve one normalized value path occurring in [file] under the
    given module scope; names bound in [env] shadow everything. *)

val to_json : t -> string
(** Schema [bn-callgraph/1]: a summary block plus one record per def
    with its resolved callee ids. Byte-stable. *)

val json_escape : string -> string
(** JSON string-body escaping shared by the byte-stable exporters. *)
