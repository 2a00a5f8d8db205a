(** Regression differ for the metrics/bench JSON artifacts — the engine
    behind [bin/obsdiff.exe], the standing CI gate for BENCH history.

    Auto-detects the artifact kind from the "schema" member: bench
    files ([beyond-nash-bench/N], v1 and v2) compare timing rows
    against a threshold; metrics files ([beyond-nash-metrics/N])
    assert the deterministic sections (["counters"], ["sketches"])
    bitwise identical. *)

type status = Pass | Fail | Missing

type check = {
  cname : string;  (** row/counter/sketch name, section-prefixed for metrics *)
  status : status;
  ratio : float option;  (** new/ref, timing rows only *)
  detail : string;
}

type report = {
  kind : string;  (** ["bench"] or ["metrics"] *)
  threshold : float;
  checks : check list;
  failures : int;
}

val ok : report -> bool

val diff :
  ?threshold:float -> ?rows:string list -> string -> string -> (report, string) result
(** [diff ref_contents new_contents]. [threshold] (default 2.0) bounds
    the new/ref timing ratio — only slowdowns fail. [rows] restricts
    the comparison to names containing one of the given substrings and
    makes each spec mandatory (no match in either file = a [Missing]
    failure); empty compares everything present in both files.
    [Error] on malformed JSON or mismatched schemas. *)

val render : ref_name:string -> new_name:string -> report -> string
(** Human verdict: one line per non-passing check plus a summary. *)

val verdict_json : ref_name:string -> new_name:string -> report -> string
(** Machine verdict (schema [obsdiff/1]), archived by CI. *)
