type severity = Error | Warning

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
  suppressed : string option;
}

type rule_info = { id : string; rule_severity : severity; summary : string }

let registry =
  [
    { id = "D001"; rule_severity = Error;
      summary = "Random.* outside Bn_util.Prng — randomness must flow from an explicit seed" };
    { id = "D002"; rule_severity = Error;
      summary = "wall-clock reads (Sys.time, Unix.gettimeofday/time) outside bench/" };
    { id = "D003"; rule_severity = Error;
      summary = "Hashtbl.iter/fold — bucket-order traversal; use Bn_util.Tbl.sorted_bindings" };
    { id = "D004"; rule_severity = Error;
      summary = "Marshal — representation-dependent serialization is banned" };
    { id = "D005"; rule_severity = Error;
      summary = "Obj.magic — defeats the type system and the determinism audit" };
    { id = "P001"; rule_severity = Error;
      summary = "top-level mutable state (ref/Hashtbl.create/Array.make/...) outside lib/util, lib/obs" };
    { id = "P002"; rule_severity = Error;
      summary = "Domain/Atomic/DLS outside Bn_util.Pool and Bn_obs.Obs" };
    { id = "P003"; rule_severity = Error;
      summary = "direct stdout printing in lib/ outside Bn_util.Out — rendering must go through Out sinks" };
    { id = "P004"; rule_severity = Error;
      summary = "Bigarray outside the flat numeric kernels (Normal_form, Nash, Learning, Simplex)" };
    { id = "P005"; rule_severity = Error;
      summary = "direct Gc access outside lib/obs — GC stats are nondeterministic; use the Obs GC probes" };
    { id = "H001"; rule_severity = Warning;
      summary = "lib/ module without an .mli interface" };
    { id = "H002"; rule_severity = Warning;
      summary = "open of a Stdlib-shadowing module (open List, open Printf, ...)" };
    { id = "H003"; rule_severity = Error;
      summary = "dune library layering violated (Bn_obs below Bn_util below everything)" };
    { id = "A001"; rule_severity = Error;
      summary = "[@@@lint.allow] audit: malformed, unknown rule ID, missing reason, or unused" };
    { id = "E000"; rule_severity = Error;
      summary = "source file failed to parse" };
    { id = "E001"; rule_severity = Error;
      summary = "solver/kernel call reaching randomness or the clock transitively, outside Prng" };
    { id = "E002"; rule_severity = Error;
      summary = "Det-counter region transitively reaching randomness or the clock" };
    { id = "R001"; rule_severity = Error;
      summary = "write to captured mutable state inside a parallel closure (direct or via a global_mut callee)" };
    { id = "R002"; rule_severity = Error;
      summary = "Prng draw from captured state inside a parallel closure — use Prng.split" };
    { id = "R003"; rule_severity = Error;
      summary = "cross-shard SoA column write inside a parallel closure — use the batched Soa.Exchange" };
  ]

let known_rule id = List.exists (fun r -> r.id = id) registry

let severity_of_rule id =
  match List.find_opt (fun r -> r.id = id) registry with
  | Some r -> r.rule_severity
  | None -> Error

let v ~rule ~file ~line ~col message =
  { rule; severity = severity_of_rule rule; file; line; col; message; suppressed = None }

let compare a b =
  Stdlib.compare
    (a.file, a.line, a.col, a.rule, a.message)
    (b.file, b.line, b.col, b.rule, b.message)

let severity_to_string = function Error -> "error" | Warning -> "warning"

let to_string f =
  Printf.sprintf "%s:%d:%d: %s [%s] %s%s" f.file f.line f.col
    (severity_to_string f.severity)
    f.rule f.message
    (match f.suppressed with None -> "" | Some reason -> Printf.sprintf " (allowed: %s)" reason)
