(** Explicit, auditable suppression: [[@@@lint.allow "D001" "reason"]].

    A floating attribute anywhere in a compilation unit suppresses that
    rule's findings {e in that file only}. Suppression is never silent:
    suppressed findings stay in the report (with the reason), and every
    allow is audited by rule A001 — an allow that is malformed, names an
    unknown rule, lacks a reason, or suppresses nothing is itself a
    finding, so stale suppressions cannot accumulate. *)

type t = {
  rule : string;  (** rule ID the attribute names ([""] when malformed) *)
  reason : string;  (** remaining string arguments, joined — may be [""] *)
  line : int;  (** location of the attribute *)
}

val scan_structure : Parsetree.structure -> t list
(** All top-level [lint.allow] floating attributes of an implementation
    (including those inside sub-structures). *)

val scan_signature : Parsetree.signature -> t list

val apply : file:string -> t list -> Finding.t list -> Finding.t list
(** Mark findings covered by a valid allow as suppressed and append A001
    findings for invalid or unused allows. A001 itself cannot be
    suppressed, and an invalid allow (unknown rule, missing reason)
    suppresses nothing. *)
