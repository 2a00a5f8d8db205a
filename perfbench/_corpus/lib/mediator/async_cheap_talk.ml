module Obs = Bn_obs.Obs
module A = Bn_dist_sim.Async_net
module Faults = Bn_dist_sim.Faults
module Explore = Bn_dist_sim.Explore
module Shamir = Bn_crypto.Shamir
module Field = Bn_crypto.Field
module Prng = Bn_util.Prng

(* All exploration goes through Explore (Pool.map_array, no early exit), so
   these tick deterministically in (seed, trials) at any -j. *)
let c_runs = Obs.counter "async_ct.runs"
let c_decodes = Obs.counter "async_ct.decodes"
let c_stalled = Obs.counter "async_ct.stalled"

let fault_bound ~k ~t = k + t
let decode_guaranteed ~n ~f = n - f >= (3 * f) + 1
let stall_witness_size ~n ~k ~t = max 0 (n - (3 * (k + t)))

type msg = Share of Shamir.share | Relay of Shamir.share

type state = { pool : Shamir.share list; decoded : int option }

(* The dealer's sharing polynomial is part of the protocol, not of the
   environment: deriving its randomness from the cell parameters keeps
   [system]'s runs a pure function of the schedule, which the Explore
   determinism contract requires. *)
let protocol_seed ~n ~k ~t ~general_type =
  (((n * 31) + k) * 31 + t) * 31 + general_type

let process ~n ~k ~t ~general_type =
  let f = fault_bound ~k ~t in
  if n < 2 || f >= n then
    invalid_arg "Async_cheap_talk.process: need n >= 2 and k + t < n (sharing degree bound)";
  let shares =
    Array.of_list
      (Shamir.share
         (Prng.create (protocol_seed ~n ~k ~t ~general_type))
         ~secret:general_type ~threshold:f ~n)
  in
  let wait = n - f in
  let have st (s : Shamir.share) = List.exists (fun s' -> s'.Shamir.x = s.Shamir.x) st.pool in
  let add st s =
    (* First claim per origin wins (duplicates are idempotent); decoding is
       attempted from pool size n-f on — the largest wait an asynchronous
       process may block for, since k+t parties may never speak. *)
    if have st s then st
    else
      let pool = s :: st.pool in
      if st.decoded <> None || List.length pool < wait then { st with pool }
      else
        match Shamir.robust_reconstruct ~degree:f ~max_errors:f pool with
        | Some v ->
          Obs.incr c_decodes;
          { pool; decoded = Some v }
        | None -> { st with pool }
  in
  {
    A.init =
      (fun me ->
        let st = { pool = []; decoded = None } in
        if me = 0 then (st, List.init n (fun j -> (j, Share shares.(j)))) else (st, []));
    on_message =
      (fun ~me st ~sender m ->
        ignore me;
        ignore sender;
        match m with
        | Share s ->
          if have st s then (st, []) else (add st s, List.init n (fun j -> (j, Relay s)))
        | Relay s -> (add st s, []));
    decided = (fun st -> st.decoded);
  }

let run ?max_steps ?(scheduler = A.fifo) ?faults ~n ~k ~t ~general_type () =
  Obs.incr c_runs;
  Obs.span "async_ct.run"
    ~args:(fun () -> [ ("n", Obs.I n); ("k", Obs.I k); ("t", Obs.I t) ])
  @@ fun () ->
  let r = A.run ?max_steps ?faults ~n ~scheduler (process ~n ~k ~t ~general_type) in
  if Array.exists (fun d -> d = None) r.A.decisions then Obs.incr c_stalled;
  r

(* {1 Explore integration} *)

let blames_dealer e = List.mem 0 (Faults.culprits [ e ])

let sanitize schedule = List.filter (fun e -> not (blames_dealer e)) schedule

let corrupt_share ~src ~dst:_ = function
  | Share s -> Share { s with Shamir.y = Field.add s.Shamir.y (1 + src) }
  | Relay s -> Relay { s with Shamir.y = Field.add s.Shamir.y (1 + src) }

let run_schedule ~n ~k ~t ~general_type schedule =
  let schedule = sanitize schedule in
  run
    ~scheduler:(Faults.async_scheduler schedule)
    ~faults:(Faults.async_plan ~corrupt:corrupt_share schedule)
    ~n ~k ~t ~general_type ()

let system ~n ~k ~t ~general_type =
  let f = fault_bound ~k ~t in
  let honest schedule =
    let bad = Faults.culprits (sanitize schedule) in
    List.filter (fun i -> not (List.mem i bad)) (List.init n Fun.id)
  in
  (* A schedule blaming more than k+t processes is outside the sub-Byzantine
     behaviours a (k,t)-robust protocol must absorb, so the invariants hold
     vacuously for it (the grid generators never draw one, but shrinking and
     hand-written replays go through the same checks). *)
  let vacuous schedule = List.length (Faults.culprits (sanitize schedule)) > f in
  let decided (r : int A.result) i = r.A.decisions.(i) in
  {
    Explore.run = (fun schedule -> run_schedule ~n ~k ~t ~general_type schedule);
    invariants =
      [
        ( "totality",
          fun s r -> vacuous s || List.for_all (fun i -> decided r i <> None) (honest s) );
        ( "agreement",
          fun s r ->
            vacuous s
            ||
            let vs = List.filter_map (decided r) (honest s) in
            List.for_all (fun v -> Some v = List.nth_opt vs 0) vs );
        ( "validity",
          fun s r ->
            vacuous s
            || List.for_all
                 (fun i -> match decided r i with None -> true | Some v -> v = general_type)
                 (honest s) );
      ];
  }

let explore ?pool ~seed ~trials ~gen ~n ~k ~t ~general_type () =
  Explore.explore ?pool ~seed ~trials
    ~gen:(fun rng -> sanitize (gen rng))
    (system ~n ~k ~t ~general_type)
