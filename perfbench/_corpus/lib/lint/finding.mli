(** Lint findings and the rule registry.

    Every rule has a stable ID ([D…] determinism, [P…] purity/layering,
    [H…] hygiene, [A…] suppression audit, [E…] tool errors), a severity
    and a one-line summary; every finding carries a precise
    [file:line:col] location. The registry is the single source of truth
    for {!Allow} (unknown-ID detection), the [--rules] listing and the
    rule table in DESIGN.md §9. *)

type severity = Error | Warning

type t = {
  rule : string;  (** stable rule ID, e.g. ["D001"] *)
  severity : severity;
  file : string;  (** path relative to the lint root, ['/']-separated *)
  line : int;  (** 1-based; 0 when the finding is about the whole file *)
  col : int;  (** 0-based column *)
  message : string;
  suppressed : string option;
      (** [Some reason] when an in-file [[@@@lint.allow]] covers it *)
}

val v : rule:string -> file:string -> line:int -> col:int -> string -> t
(** Build an unsuppressed finding; severity comes from the registry. *)

val compare : t -> t -> int
(** Order by (file, line, col, rule, message) — the deterministic report
    order. *)

val severity_to_string : severity -> string

val to_string : t -> string
(** [file:line:col: severity [rule] message] — the human report line. *)

(** {1 Registry} *)

type rule_info = {
  id : string;
  rule_severity : severity;
  summary : string;  (** one line, shown by [--rules] *)
}

val registry : rule_info list
(** All rules, in ID order. *)

val known_rule : string -> bool
