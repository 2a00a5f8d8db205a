(** H003 — library layering, checked from [lib/*/dune] files.

    The repo's dependency discipline is: [bn_obs] at the bottom (no
    in-tree dependencies — observability must be linkable from anywhere),
    [bn_util] directly above it (may depend only on [bn_obs]), and every
    other library above those. The in-tree dependency graph must also be
    acyclic. External (opam) dependencies are ignored. *)

type lib = {
  lib_name : string;
  deps : string list;  (** the [(libraries ...)] field, verbatim *)
  dune_file : string;  (** repo-relative path of the defining dune file *)
  line : int;  (** line of the [(name ...)] field *)
}

val libs_of_dune : file:string -> string -> lib list
(** Parse the [library] stanzas out of one dune file's content. Returns
    [[]] on files with no library stanza (or unparsable content — dune
    itself will complain about those). *)

val check : lib list -> Finding.t list
(** H003 findings over the whole in-tree library set. *)
