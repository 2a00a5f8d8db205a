(* The closed-loop measuring harness shared by the four workloads: one
   client, one domain, the next op starts when the previous one ends.
   Wall time, process CPU time and allocated words are taken around every
   op; nothing between ops (heap resets, bookkeeping, the host-speed
   reference) is timed. *)

type outcome = Pass | Fail of { reason : string; detail : string }

type sample = {
  label : string;
  wall_s : float;
  cpu_s : float;
  alloc_w : float;
  minor_gcs : int;
  major_gcs : int;
  outcome : outcome;
  scale : float;  (** host-speed factor for [wall_s] and [cpu_s]; 1 without a reference *)
}

let fail reason fmt = Printf.ksprintf (fun detail -> Fail { reason; detail }) fmt
let now = Unix.gettimeofday

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Words allocated so far: minor + directly-major allocations, which do
   not depend on when collections run. OCaml 5.1 folds direct major
   allocations into [Gc.quick_stat] only at the next minor collection,
   so one is forced first; with that, a difference at one domain is
   exact. *)
let words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

(* {1 Per-op deadline} *)

exception Deadline

(* A late SIGALRM (delivered after the op finished) must not raise into
   the harness, hence the [armed] flag. *)
let armed = ref false

let set_timer seconds =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = seconds })

let with_deadline seconds f =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> if !armed then raise Deadline));
  Fun.protect
    ~finally:(fun () ->
      armed := false;
      set_timer 0.)
    (fun () ->
      try
        armed := true;
        set_timer seconds;
        let r = f () in
        armed := false;
        Some r
      with Deadline -> None)

(* {1 Time outside the op} *)

(* Work done inside an op's timed window that is not part of the op (the
   host-speed reference, run between the steps of a long op) is run with
   [untimed], and its costs are taken out of the op's figures. *)
type costs = { mutable wall : float; mutable cpu : float; mutable words : float; mutable minors : int; mutable majors : int }

let untimed_costs = { wall = 0.; cpu = 0.; words = 0.; minors = 0; majors = 0 }

let untimed f =
  let w0 = words () in
  let g0 = Gc.quick_stat () in
  let c0 = cpu_s () in
  let t0 = now () in
  Fun.protect f ~finally:(fun () ->
      let t1 = now () in
      let c1 = cpu_s () in
      let g1 = Gc.quick_stat () in
      let w1 = words () in
      let u = untimed_costs in
      u.wall <- u.wall +. (t1 -. t0);
      u.cpu <- u.cpu +. (c1 -. c0);
      u.words <- u.words +. (w1 -. w0);
      u.minors <- u.minors + g1.minor_collections - g0.minor_collections;
      u.majors <- u.majors + g1.major_collections - g0.major_collections)

(* {1 Layer probes}

   The traced run wraps each public call into a layer with a probe that
   accumulates calls, wall time and allocated words under the call's
   metric name; the untraced run uses [off], which only calls through. *)

type acc = { mutable calls : int; mutable time_s : float; mutable words : float }
type probe = { call : 'a. string -> (unit -> 'a) -> 'a }

let off = { call = (fun _ f -> f ()) }

let recording () =
  let tbl : (string, acc) Hashtbl.t = Hashtbl.create 16 in
  let call name f =
    let a =
      match Hashtbl.find_opt tbl name with
      | Some a -> a
      | None ->
        let a = { calls = 0; time_s = 0.; words = 0. } in
        Hashtbl.add tbl name a;
        a
    in
    (* The reference run at a step inside the call is not the call's. *)
    let u = untimed_costs in
    let w0 = words () and uw0 = u.words in
    let t0 = now () and ut0 = u.wall in
    Fun.protect
      ~finally:(fun () ->
        a.time_s <- a.time_s +. (now () -. t0) -. (u.wall -. ut0);
        a.words <- a.words +. (words () -. w0) -. (u.words -. uw0);
        a.calls <- a.calls + 1)
      f
  in
  ({ call }, fun name -> Hashtbl.find_opt tbl name)

(* {1 The loop} *)

(* A long op calls [step ()] between its steps, as often as it likes;
   the loop runs the host-speed reference there when the step has lasted
   [reference_every_s] (see [run_passes]). [step_started] is when the
   op's current step began. *)
let step_hook = ref ignore
let step () = !step_hook ()
let step_started = ref 0.
let reference_every_s = 0.5

(* Runs [f] with a [step] every 0.1 s of its CPU time, from a SIGVTALRM
   handler, for ops whose own steps are seconds apart. The handler runs
   between two OCaml instructions of [f], as any signal handler does. *)
let with_timer_steps f =
  let every s = ignore (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = s; it_value = s }) in
  Sys.set_signal Sys.sigvtalrm (Sys.Signal_handle (fun _ -> step ()));
  every 0.1;
  Fun.protect ~finally:(fun () -> every 0.) f

(* Each op starts on a freshly compacted heap, as a new process would, so
   it does not inherit the garbage of the ops before it (a deadline op
   leaves plenty) and its time does not depend on the order of the ops.
   The compaction is outside the timed window. *)
let measure label f =
  Gc.compact ();
  let u = untimed_costs in
  u.wall <- 0.;
  u.cpu <- 0.;
  u.words <- 0.;
  u.minors <- 0;
  u.majors <- 0;
  let w0 = words () in
  let g0 = Gc.quick_stat () in
  let c0 = cpu_s () in
  let t0 = now () in
  step_started := t0;
  let outcome =
    match f () with
    | o -> o
    | exception Deadline -> fail "deadline" "deadline exception escaped the op"
    | exception e -> fail "exception" "%s" (Printexc.to_string e)
  in
  let t1 = now () in
  let c1 = cpu_s () in
  let g1 = Gc.quick_stat () in
  let w1 = words () in
  {
    label;
    wall_s = t1 -. t0 -. u.wall;
    cpu_s = c1 -. c0 -. u.cpu;
    alloc_w = w1 -. w0 -. u.words;
    minor_gcs = g1.minor_collections - g0.minor_collections - u.minors;
    major_gcs = g1.major_collections - g0.major_collections - u.majors;
    outcome;
    scale = 1.;
  }

let passed s = s.outcome = Pass

(* A host-speed reference: fixed work, frozen in the benchmark's own
   files so that no change to lib/ changes it, whose time says how fast
   the host runs that kind of code at the moment. [nominal_s] is its time
   when the benchmark was frozen. *)
type reference = { nominal_s : float; run : unit -> float }

(* Wall time spent reading references so far: the benchmark's own
   overhead, kept out of [setup_s]. *)
let reference_wall_s = ref 0.

let read_reference r =
  let t0 = now () in
  let v = r.run () in
  reference_wall_s := !reference_wall_s +. (now () -. t0);
  v

(* Runs [passes] passes over [ops]. Whole passes keep the mix of inputs
   identical from run to run. An input whose op failed is not run again
   in later passes: its failure repeats, and another deadline miss would
   only time the timer.

   With a [reference], it is read before the first op, after every
   [reference_every_s] of ops and at the [step]s of a long op. The time
   between two readings gets the factor nominal / (mean of the two), and
   each passing op's wall and CPU times are scaled by the factor of the
   time it ran in, weighted by wall time over its steps: ops are reported
   at the host speed the benchmark was frozen at. A failed op keeps its
   raw times, as a deadline miss lasts as long as the timer. *)
let run_passes ?reference ~passes ops =
  let failed = Hashtbl.create 8 in
  (* [pending]: finished ops since the last reading, each with the
     (wall, factor) of its steps that ended at a reading *)
  let settled = ref [] and pending = ref [] and pending_s = ref 0. and steps = ref [] in
  let before = ref (match reference with Some r -> read_reference r | None -> 0.) in
  let factor r =
    let after = read_reference r in
    let f = r.nominal_s /. ((!before +. after) /. 2.) in
    before := after;
    f
  in
  let scaled f (s, steps) =
    if not (passed s) then s
    else if steps = [] || s.wall_s <= 0. then { s with scale = f }
    else begin
      let stepped = List.fold_left (fun acc (w, g) -> acc +. (w *. g)) 0. steps in
      let rest = s.wall_s -. List.fold_left (fun acc (w, _) -> acc +. w) 0. steps in
      { s with scale = (stepped +. (rest *. f)) /. s.wall_s }
    end
  in
  let settle f =
    settled := List.map (scaled f) !pending @ !settled;
    pending := [];
    pending_s := 0.
  in
  let read () =
    match reference with
    | Some r -> settle (factor r)
    | None -> settle 1.
  in
  (* At a step, the ops finished since the last reading and the op's
     step that just ended share this reading's factor. *)
  let on_step r () =
    let w = now () -. !step_started in
    if w >= reference_every_s then begin
      untimed (fun () ->
          let f = factor r in
          settle f;
          steps := (w, f) :: !steps);
      step_started := now ()
    end
  in
  Option.iter (fun r -> step_hook := on_step r) reference;
  Fun.protect
    ~finally:(fun () -> step_hook := ignore)
    (fun () ->
      for _ = 1 to passes do
        Array.iter
          (fun (label, f) ->
            if not (Hashtbl.mem failed label) then begin
              steps := [];
              let s = measure label f in
              if not (passed s) then Hashtbl.replace failed label ();
              pending := (s, !steps) :: !pending;
              pending_s := !pending_s +. s.wall_s;
              if !pending_s >= reference_every_s then read ()
            end)
          ops
      done;
      if !pending <> [] then read ();
      List.rev !settled)

(* {1 Summaries} *)

(* How much scaling [samples] to the reference host speed changes their
   summed wall time. *)
let scaling_s samples =
  List.fold_left (fun acc s -> if passed s then acc +. (s.wall_s *. (s.scale -. 1.)) else acc) 0. samples

type summary = {
  attempted : int;
  passed : int;
  inputs : int;  (** distinct inputs run *)
  ok_inputs : int;  (** inputs whose every op passed *)
  busy_s : float;  (** summed op wall time, passing ops scaled *)
  p50_ms : float;
  raw_p50_ms : float;  (** [p50_ms] before host-speed scaling *)
  speed : float;  (** median host-speed factor of the passing ops *)
  tail_ms : float;
  tail_pct : float;  (** which percentile [tail_ms] is *)
  tail_beyond : int;  (** passing samples above it *)
  max_ms : float;  (** slowest passing op *)
  cpu_per_op_ms : float;
  alloc_mw_per_op : float;
  minor_gcs_per_op : float;
  major_gcs_per_op : float;
  failures : sample list;
}

let median_of sorted =
  let n = Array.length sorted in
  if n = 0 then 0. else if n mod 2 = 1 then sorted.(n / 2) else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.

(* Harrell–Davis estimate of quantile [q] of [sorted]: the mean of all
   order statistics, the i-th weighted by the mass that
   Beta((n+1)q, (n+1)(1-q)) puts on [(i-1)/n, i/n] (midpoint rule, in
   log space relative to the mode). Op times come in clusters (one per
   game size or family), and a plain order statistic that falls between
   two clusters jumps with host noise; this one moves smoothly. *)
let hd_quantile sorted q =
  let n = Array.length sorted in
  if n <= 1 then median_of sorted
  else begin
    let a = float (n + 1) *. q and b = float (n + 1) *. (1. -. q) in
    let log_pdf x = ((a -. 1.) *. log x) +. ((b -. 1.) *. log (1. -. x)) in
    let peak = log_pdf ((a -. 1.) /. (a +. b -. 2.)) in
    let steps = 16 in
    let h = 1. /. float (n * steps) in
    let total = ref 0. and acc = ref 0. in
    Array.iteri
      (fun i x ->
        let w = ref 0. in
        for j = 0 to steps - 1 do
          w := !w +. exp (log_pdf ((float ((i * steps) + j) +. 0.5) *. h) -. peak)
        done;
        total := !total +. !w;
        acc := !acc +. (!w *. x))
      sorted;
    !acc /. !total
  end

let summarize samples =
  let ok = List.filter passed samples in
  let n_ok = List.length ok in
  let sorted_of f =
    let a = Array.of_list (List.map f ok) in
    Array.sort compare a;
    a
  in
  let walls = sorted_of (fun s -> s.wall_s *. s.scale *. 1e3) in
  let labels = List.sort_uniq compare (List.map (fun s -> s.label) samples) in
  let failed_labels =
    List.sort_uniq compare (List.filter_map (fun s -> if passed s then None else Some s.label) samples)
  in
  let sum f l = List.fold_left (fun a s -> a +. f s) 0. l in
  let attempted = List.length samples in
  let per_op x = if attempted = 0 then 0. else x /. float attempted in
  let p50 = hd_quantile walls 0.5 in
  (* The highest percentile with at least 10 passing samples beyond it;
     below 11 samples, the median. *)
  let tail_ms, tail_pct, tail_beyond =
    if n_ok >= 11 then
      let q = float (n_ok - 10) /. float n_ok in
      (hd_quantile walls q, 100. *. q, 10)
    else (p50, 50., n_ok / 2)
  in
  {
    attempted;
    passed = n_ok;
    inputs = List.length labels;
    ok_inputs = List.length labels - List.length failed_labels;
    busy_s = sum (fun s -> s.wall_s *. s.scale) samples;
    p50_ms = p50;
    raw_p50_ms = hd_quantile (sorted_of (fun s -> s.wall_s *. 1e3)) 0.5;
    speed = median_of (sorted_of (fun s -> s.scale));
    tail_ms;
    tail_pct;
    tail_beyond;
    max_ms = (if n_ok = 0 then 0. else walls.(n_ok - 1));
    cpu_per_op_ms = per_op (sum (fun s -> s.cpu_s *. s.scale) samples) *. 1e3;
    alloc_mw_per_op = (if n_ok = 0 then 0. else sum (fun s -> s.alloc_w) ok /. 1e6 /. float n_ok);
    minor_gcs_per_op = per_op (sum (fun s -> float s.minor_gcs) samples);
    major_gcs_per_op = per_op (sum (fun s -> float s.major_gcs) samples);
    failures = List.filter (fun s -> not (passed s)) samples;
  }

(* A run is correct when every op passed, except ops recorded as failing
   through a known defect, with the recorded reason and detail: those
   count as failed ops but not as a wrong result of the run. A known op
   that fails another way is a wrong result. *)
let known_failure ~known s = List.mem (s.label, s.outcome) known
let correct ~known samples = List.for_all (fun s -> passed s || known_failure ~known s) samples

let failure_reasons s =
  List.fold_left
    (fun acc smp ->
      match smp.outcome with
      | Pass -> acc
      | Fail { reason; _ } ->
        let n = try List.assoc reason acc with Not_found -> 0 in
        (reason, n + 1) :: List.remove_assoc reason acc)
    [] s.failures
  |> List.sort compare

(* Peak resident set of this process, from /proc (VmHWM, in kB). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> float kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
