(** Deterministic escape hatch for hash tables.

    [Hashtbl.iter]/[Hashtbl.fold] enumerate buckets in an order that
    depends on hashing and insertion history, so any result built from a
    raw traversal is a determinism hazard — the byte-identical-at-any[-j]
    contract (and lint rule D003) bans them everywhere else in the tree.
    This module is the single reviewed site: every traversal sorts the
    bindings by key (polymorphic [compare]) before they escape, making the
    result a pure function of the table's {e contents}.

    Keys must therefore be safely comparable (no functional values); all
    in-tree uses are ints, strings or lists of those. *)

val sorted_bindings : ('a, 'b) Hashtbl.t -> ('a * 'b) list
(** All bindings, sorted by key. For tables built with [Hashtbl.replace]
    (every in-tree table) keys are distinct, so the order is total and the
    values never need comparing. *)

val sorted_keys : ('a, 'b) Hashtbl.t -> 'a list
(** [List.map fst (sorted_bindings tbl)]. *)

val find_first : ('a -> 'b -> bool) -> ('a, 'b) Hashtbl.t -> ('a * 'b) option
(** First binding in key order satisfying the predicate — the
    deterministic replacement for "[Hashtbl.iter] until a hit". *)
