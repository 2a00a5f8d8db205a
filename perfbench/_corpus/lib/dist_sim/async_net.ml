module Obs = Bn_obs.Obs

(* Scenario sweeps go through Pool.map (no early exit), so these are
   deterministic for any -j. *)
let c_runs = Obs.counter "async_net.runs"
let c_steps = Obs.counter "async_net.steps"
let c_dropped = Obs.counter "async_net.dropped"

type ('s, 'm) process = {
  init : int -> 's * (int * 'm) list;
  on_message : me:int -> 's -> sender:int -> 'm -> 's * (int * 'm) list;
  decided : 's -> int option;
}

type 'm in_flight = { sender : int; dest : int; payload : 'm; seq : int }

type 'm scheduler = 'm in_flight list -> 'm in_flight

let fifo pending =
  List.fold_left (fun best m -> if m.seq < best.seq then m else best) (List.hd pending) pending

let random rng pending = List.nth pending (Bn_util.Prng.int rng (List.length pending))

let delayer ~victim ~budget pending =
  let others = List.filter (fun m -> m.sender <> victim) pending in
  if others <> [] && !budget > 0 then begin
    decr budget;
    fifo others
  end
  else fifo pending

(* Environment faults for the asynchronous network: once the scheduler has
   committed to delivering a message, the filter may still [Drop] it (it
   vanishes — no retransmission), [Duplicate] it (delivered now and
   re-enqueued as a fresh in-flight copy), or [Replace] its payload (the
   asynchronous face of {!Faults.Corrupt}). [step] is the 0-based delivery
   step, so filters driven by a {!Bn_util.Prng} stream are deterministic
   for a fixed seed and scheduler. *)
type 'm fault_verdict = Deliver | Drop | Duplicate | Replace of 'm

type 'm fault_filter = step:int -> 'm in_flight -> 'm fault_verdict

type 'o result = {
  decisions : 'o option array;
  steps : int;
  undelivered : int;
  dropped : int;
}

let run ?(max_steps = 100_000) ?faults ~n ~scheduler process =
  if n <= 0 then invalid_arg "Async_net.run: need processes";
  Obs.incr c_runs;
  Obs.span "async_net.run" ~args:(fun () -> [ ("n", Obs.I n) ])
  @@ fun () ->
  let seq = ref 0 in
  let pending = ref [] in
  let post sender (dest, payload) =
    if dest < 0 || dest >= n then invalid_arg "Async_net.run: destination out of range";
    pending := { sender; dest; payload; seq = !seq } :: !pending;
    incr seq
  in
  let states =
    Array.init n (fun me ->
        let state, outgoing = process.init me in
        List.iter (post me) outgoing;
        state)
  in
  let steps = ref 0 in
  let dropped = ref 0 in
  let all_decided () = Array.for_all (fun s -> process.decided s <> None) states in
  while (not (all_decided ())) && !pending <> [] && !steps < max_steps do
    let m = scheduler !pending in
    pending := List.filter (fun m' -> m'.seq <> m.seq) !pending;
    let verdict =
      match faults with None -> Deliver | Some f -> f ~step:!steps m
    in
    (match verdict with
    | Drop -> incr dropped
    | (Deliver | Duplicate | Replace _) as v ->
      (match v with Duplicate -> post m.sender (m.dest, m.payload) | _ -> ());
      let payload = match v with Replace p -> p | _ -> m.payload in
      let state, outgoing =
        process.on_message ~me:m.dest states.(m.dest) ~sender:m.sender payload
      in
      states.(m.dest) <- state;
      List.iter (post m.dest) outgoing);
    incr steps
  done;
  Obs.add c_steps !steps;
  Obs.add c_dropped !dropped;
  {
    decisions = Array.map process.decided states;
    steps = !steps;
    undelivered = List.length !pending;
    dropped = !dropped;
  }

let run_scenarios ?max_steps ?(pool = Bn_util.Pool.serial) ~n schedulers process =
  (* Each scenario builds its scheduler on its own domain (schedulers may
     carry private mutable state, e.g. [delayer]'s budget), and every run
     is an independent simulation, so results are scenario-order
     deterministic for any pool size. *)
  Bn_util.Pool.map pool (fun mk -> run ?max_steps ~n ~scheduler:(mk ()) process) schedulers
