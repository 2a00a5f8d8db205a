(** Deterministic fault injection for the distributed simulators.

    A {!schedule} is a declarative list of fault {!event}s — per-link
    message drop / duplicate / delay, network partitions with healing,
    crash-stop at a chosen round, and message-corruption hooks. {!plan}
    compiles a schedule into a {!Sync_net.fault_plan} that composes with
    any protocol and any {!Sync_net.adversary} without touching
    honest-protocol code; {!async_filter} gives the asynchronous analogue
    on top of any {!Async_net.scheduler}. {!random_schedule} draws
    seed-deterministic schedules from an indexed {!Bn_util.Prng} stream —
    the raw material for {!Explore}'s FoundationDB-style schedule
    exploration.

    Fault attribution: every event except a partition can be blamed on one
    process ({!culprits}) — the crashed process, or the sender whose
    outgoing messages are tampered with. A schedule whose culprits number
    at most [t] is a sub-Byzantine behaviour of [t] faulty processes, so a
    protocol correct against [t] Byzantine faults must satisfy its
    guarantees for the remaining processes ({!mask}) under any such
    schedule — the property the exploration suites check mechanically. *)

module Obs = Bn_obs.Obs

(* Applied per attempted delivery inside Sync_net rounds: deterministic
   for a fixed schedule, like the sync_net counters. *)
let c_link_events = Obs.counter "faults.link_events_applied"

type event =
  | Drop of { round : int; src : int; dst : int }
      (** Messages from [src] to [dst] sent in [round] are lost. *)
  | Duplicate of { round : int; src : int; dst : int }
      (** ... are delivered twice in the same round. *)
  | Delay of { round : int; src : int; dst : int; by : int }
      (** ... arrive [by] rounds late (lost past the horizon). *)
  | Crash of { proc : int; round : int }
      (** [proc] crash-stops at the start of [round]: sends nothing from
          [round] on and produces no output. *)
  | Partition of { from_round : int; heal_round : int; groups : int list list }
      (** Messages crossing group boundaries are lost for rounds
          [from_round <= r < heal_round] (the partition heals at
          [heal_round]). Processes absent from [groups] are isolated. *)
  | Corrupt of { round : int; src : int; dst : int }
      (** The payload is rewritten by the [?corrupt] hook given to {!plan}
          (delivered unchanged when no hook is supplied). *)

type schedule = event list

let event_to_string = function
  | Drop { round; src; dst } -> Printf.sprintf "drop r%d %d->%d" round src dst
  | Duplicate { round; src; dst } -> Printf.sprintf "dup r%d %d->%d" round src dst
  | Delay { round; src; dst; by } -> Printf.sprintf "delay r%d %d->%d +%d" round src dst by
  | Crash { proc; round } -> Printf.sprintf "crash p%d@r%d" proc round
  | Partition { from_round; heal_round; groups } ->
    Printf.sprintf "partition r%d-r%d [%s]" from_round heal_round
      (String.concat " | "
         (List.map (fun g -> String.concat " " (List.map string_of_int g)) groups))
  | Corrupt { round; src; dst } -> Printf.sprintf "corrupt r%d %d->%d" round src dst

let schedule_to_string schedule =
  Printf.sprintf "[%s]" (String.concat "; " (List.map event_to_string schedule))

(* {1 Fault attribution} *)

let culprits schedule =
  List.sort_uniq compare
    (List.filter_map
       (function
         | Drop { src; _ } | Duplicate { src; _ } | Delay { src; _ } | Corrupt { src; _ } ->
           Some src
         | Crash { proc; _ } -> Some proc
         | Partition _ -> None)
       schedule)

let mask schedule outputs =
  let bad = culprits schedule in
  Array.mapi (fun i o -> if List.mem i bad then None else o) outputs

(* {1 Compiling a schedule to a synchronous fault plan} *)

let same_group groups a b =
  (* Isolated (unlisted) processes are their own singleton group. *)
  match
    ( List.find_opt (List.mem a) groups,
      List.find_opt (List.mem b) groups )
  with
  | Some ga, Some gb -> ga == gb
  | None, None -> a = b
  | _ -> false

let plan ?corrupt schedule =
  let crashed ~round p =
    List.exists (function Crash { proc; round = r0 } -> proc = p && round >= r0 | _ -> false) schedule
  in
  let on_link ~round ~src ~dst m =
    (* Fold the schedule's matching events, in order, over the delivery
       list; start from the intact singleton delivery. Each applied event
       bumps the (deterministic) counter and, when tracing, leaves an
       instant on the trace timeline. *)
    let applied = ref 0 in
    let hit name =
      incr applied;
      Obs.instant name
        ~args:(fun () -> [ ("round", Obs.I round); ("src", Obs.I src); ("dst", Obs.I dst) ])
    in
    let deliveries =
      List.fold_left
        (fun deliveries ev ->
          match ev with
          | Drop { round = r; src = s; dst = d } when r = round && s = src && d = dst ->
            hit "fault.drop";
            []
          | Duplicate { round = r; src = s; dst = d } when r = round && s = src && d = dst ->
            hit "fault.dup";
            List.concat_map (fun x -> [ x; x ]) deliveries
          | Delay { round = r; src = s; dst = d; by } when r = round && s = src && d = dst ->
            hit "fault.delay";
            List.map (fun (r', m') -> (r' + max 0 by, m')) deliveries
          | Partition { from_round; heal_round; groups }
            when round >= from_round && round < heal_round && not (same_group groups src dst) ->
            hit "fault.partition";
            []
          | Corrupt { round = r; src = s; dst = d } when r = round && s = src && d = dst -> (
            hit "fault.corrupt";
            match corrupt with
            | None -> deliveries
            | Some f -> List.map (fun (r', m') -> (r', f ~round ~src ~dst m')) deliveries)
          | Drop _ | Duplicate _ | Delay _ | Crash _ | Partition _ | Corrupt _ -> deliveries)
        [ (round, m) ]
        schedule
    in
    Obs.add c_link_events !applied;
    deliveries
  in
  { Sync_net.crashed; on_link }

(* {1 Asynchronous faults} *)

let async_filter rng ~drop ~dup =
  if drop < 0.0 || dup < 0.0 || drop +. dup > 1.0 then
    invalid_arg "Faults.async_filter: need drop, dup >= 0 and drop + dup <= 1";
  fun ~step:_ (_ : 'm Async_net.in_flight) ->
    let u = Bn_util.Prng.float rng in
    if u < drop then Async_net.Drop
    else if u < drop +. dup then Async_net.Duplicate
    else Async_net.Deliver

(* Asynchronous reading of a declarative schedule. There are no rounds, so
   events apply by link: a crash silences every message the victim sends, a
   drop/corrupt/duplicate applies to every delivery on its (src, dst) link
   regardless of the event's [round] field. Duplicate fires once per link —
   Async_net re-enqueues the copy as a fresh in-flight message, so an
   unconditional Duplicate verdict would re-duplicate its own copies
   forever. The filter's only state is the once-per-link memo, created
   fresh per call, so one plan value must not be shared across runs. *)
let async_plan ?corrupt schedule =
  let dup_used = ref [] in
  let has p = List.exists p schedule in
  fun ~step:_ (m : 'm Async_net.in_flight) ->
    let src = m.Async_net.sender and dst = m.Async_net.dest in
    if has (function Crash { proc; _ } -> proc = src | _ -> false) then begin
      Obs.incr c_link_events;
      Async_net.Drop
    end
    else if has (function Drop { src = s; dst = d; _ } -> s = src && d = dst | _ -> false)
    then begin
      Obs.incr c_link_events;
      Async_net.Drop
    end
    else if has (function Corrupt { src = s; dst = d; _ } -> s = src && d = dst | _ -> false)
    then begin
      Obs.incr c_link_events;
      match corrupt with
      | None -> Async_net.Deliver
      | Some f -> Async_net.Replace (f ~src ~dst m.Async_net.payload)
    end
    else if
      (not (List.mem (src, dst) !dup_used))
      && has (function Duplicate { src = s; dst = d; _ } -> s = src && d = dst | _ -> false)
    then begin
      Obs.incr c_link_events;
      dup_used := (src, dst) :: !dup_used;
      Async_net.Duplicate
    end
    else Async_net.Deliver

(* Delay and Partition have no asynchronous loss semantics: they become
   pure scheduling pressure. Matching messages are starved while any fresh
   message is pending but are still delivered once only starved messages
   remain, so eventual delivery (fairness) is preserved — the no-culprit
   events of {!culprits} stay harmless on their own, exactly as in the
   synchronous reading where partitions heal. *)
let async_scheduler schedule =
  let starved (m : 'm Async_net.in_flight) =
    List.exists
      (function
        | Delay { src; dst; _ } -> src = m.Async_net.sender && dst = m.Async_net.dest
        | Partition { groups; _ } -> not (same_group groups m.Async_net.sender m.Async_net.dest)
        | Drop _ | Duplicate _ | Crash _ | Corrupt _ -> false)
      schedule
  in
  fun pending ->
    match List.filter (fun m -> not (starved m)) pending with
    | [] -> Async_net.fifo pending
    | fresh -> Async_net.fifo fresh

(* {1 Seed-deterministic random schedules} *)

type kind = KDrop | KDuplicate | KDelay | KCrash | KPartition | KCorrupt

type gen = {
  n : int;  (** processes 0..n-1 *)
  rounds : int;  (** fault events target rounds 1..rounds *)
  max_events : int;  (** 1..max_events events per schedule *)
  kinds : kind list;  (** allowed event kinds *)
  max_culprits : int;  (** blameable events confined to this many processes *)
}

let random_schedule rng g =
  if g.n <= 0 || g.rounds <= 0 || g.max_events <= 0 then
    invalid_arg "Faults.random_schedule: need n, rounds, max_events > 0";
  if g.kinds = [] then invalid_arg "Faults.random_schedule: need at least one kind";
  let kinds = Array.of_list g.kinds in
  (* Pre-draw the culprit pool: all blameable events use these processes
     as crash victim / tampered sender, so |culprits| <= max_culprits. *)
  let procs = Array.init g.n Fun.id in
  Bn_util.Prng.shuffle rng procs;
  let pool = Array.sub procs 0 (max 1 (min g.max_culprits g.n)) in
  let events = 1 + Bn_util.Prng.int rng g.max_events in
  List.init events (fun _ ->
      let round = 1 + Bn_util.Prng.int rng g.rounds in
      let src = Bn_util.Prng.pick rng pool in
      let dst = Bn_util.Prng.int rng g.n in
      match Bn_util.Prng.pick rng kinds with
      | KDrop -> Drop { round; src; dst }
      | KDuplicate -> Duplicate { round; src; dst }
      | KDelay -> Delay { round; src; dst; by = 1 + Bn_util.Prng.int rng 2 }
      | KCrash -> Crash { proc = src; round }
      | KPartition ->
        (* Random cut into two camps; heals after 1-2 rounds. *)
        let side = Array.init g.n (fun _ -> Bn_util.Prng.bool rng) in
        let group b = List.filter (fun i -> side.(i) = b) (List.init g.n Fun.id) in
        Partition
          {
            from_round = round;
            heal_round = round + 1 + Bn_util.Prng.int rng 2;
            groups = [ group true; group false ];
          }
      | KCorrupt -> Corrupt { round; src; dst })

let crash_only ~n ~rounds ~max_crashes =
  { n; rounds; max_events = max_crashes; kinds = [ KCrash ]; max_culprits = max_crashes }

let omission ~n ~rounds ~max_events ~max_culprits =
  { n; rounds; max_events; kinds = [ KDrop; KDelay; KDuplicate; KCrash ]; max_culprits }

let byzantine ~n ~rounds ~max_events ~max_culprits =
  { n; rounds; max_events; kinds = [ KDrop; KDelay; KDuplicate; KCrash; KCorrupt ]; max_culprits }
