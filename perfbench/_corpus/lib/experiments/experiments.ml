(** Registry of the paper-reproduction experiments E1–E12 and the extension
    experiments E13–E17 (correlated-equilibrium mediator value, rational
    secret sharing, asynchronous scheduling, the asynchronous-mediator
    regime sweep, and the million-agent SoA scrip/free-riding runs).

    Each entry regenerates one table/claim of Halpern (PODC 2008); the
    mapping to paper sections is in DESIGN.md §4 and the measured outcomes
    are recorded in EXPERIMENTS.md.

    Every experiment takes [?jobs] — the domain budget for its internal
    parallel loops (coalition enumeration, Monte Carlo trials, scenario
    sweeps) — and prints through {!Bn_util.Out}, which is what lets
    {!run_all} render experiments concurrently and still emit the
    byte-exact serial transcript. The contract, pinned down by
    [test/test_determinism.ml]: output is identical for every [jobs]. *)

module Obs = Bn_obs.Obs

let c_rendered = Obs.counter "experiments.rendered"

type entry = string * string * (?jobs:int -> unit -> unit)

let all : entry list =
  [
    (Exp_e1.name, Exp_e1.title, Exp_e1.run);
    (Exp_e2.name, Exp_e2.title, Exp_e2.run);
    (Exp_e3.name, Exp_e3.title, Exp_e3.run);
    (Exp_e4.name, Exp_e4.title, Exp_e4.run);
    (Exp_e5.name, Exp_e5.title, Exp_e5.run);
    (Exp_e6.name, Exp_e6.title, Exp_e6.run);
    (Exp_e7.name, Exp_e7.title, Exp_e7.run);
    (Exp_e8.name, Exp_e8.title, Exp_e8.run);
    (Exp_e9.name, Exp_e9.title, Exp_e9.run);
    (Exp_e10.name, Exp_e10.title, Exp_e10.run);
    (Exp_e11.name, Exp_e11.title, Exp_e11.run);
    (Exp_e12.name, Exp_e12.title, Exp_e12.run);
    (Exp_e13.name, Exp_e13.title, Exp_e13.run);
    (Exp_e14.name, Exp_e14.title, Exp_e14.run);
    (Exp_e15.name, Exp_e15.title, Exp_e15.run);
    (Exp_e16.name, Exp_e16.title, Exp_e16.run);
    (Exp_e17.name, Exp_e17.title, Exp_e17.run);
  ]

let find id = List.find_opt (fun (name, _, _) -> String.lowercase_ascii name = String.lowercase_ascii id) all

let sk_render_ns = Obs.sketch ~kind:Obs.Volatile "exp.render_ns"

let render_entry ~jobs ((name, title, run) : entry) =
  Obs.incr c_rendered;
  let t0 = Obs.now_us () and spans0 = Obs.span_count () in
  let transcript =
    Obs.span ("exp." ^ name) (fun () ->
        Obs.timed sk_render_ns (fun () ->
            Bn_util.Out.with_capture (fun () ->
                Bn_util.Out.printf "######## %s: %s ########\n\n" name title;
                run ~jobs ())))
  in
  (* --progress: one stderr line as each experiment completes, so long
     runs are not silent. stderr only (stdout stays byte-identical);
     the span count is a global delta, approximate when experiments
     render concurrently. *)
  if Obs.progress_enabled () then
    Printf.eprintf "[progress] %-4s done  %8.1f ms  %d spans\n%!" name
      ((Obs.now_us () -. t0) /. 1e3)
      (Obs.span_count () - spans0);
  transcript

let render ?(jobs = 1) id = Option.map (render_entry ~jobs) (find id)

let run_all ?(jobs = 1) () =
  (* Each experiment renders into its own buffer on the pool; printing in
     registry order afterwards keeps the transcript byte-identical to the
     serial run no matter how domains interleave. *)
  let pool = Bn_util.Pool.create ~domains:jobs () in
  List.iter Bn_util.Out.print_string (Bn_util.Pool.map pool (render_entry ~jobs) all)
