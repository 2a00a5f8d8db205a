(* Sharded batched scrip engine on the SoA store. Parallel phase: each
   shard touches only its own agents' columns and posts cross-shard
   requests to the Exchange; sequential flush after the barrier replays
   them in (src, dst, posting order). Per-(step, shard) Prng.split
   streams make the whole run a pure function of (seed, shards) — the
   domain budget never enters. *)

module Soa = Bn_agents.Soa
module Prng = Bn_util.Prng
module Pool = Bn_util.Pool
module Obs = Bn_obs.Obs

(* Kind encoding in the I8 column. *)
let k_standard = 0
let k_hoarder = 1
let k_altruist = 2

let c_steps = Obs.counter ~kind:Obs.Det "scrip_soa.steps"
let c_requests = Obs.counter ~kind:Obs.Det "scrip_soa.requests"
let c_satisfied = Obs.counter ~kind:Obs.Det "scrip_soa.satisfied"
let c_cross = Obs.counter ~kind:Obs.Det "scrip_soa.cross_shard_events"
let c_flushes = Obs.counter ~kind:Obs.Det "scrip_soa.flushes"

(* The request count per step is seed-determined (hoarder draws skip the
   post), so its distribution is Det; the batch wall time is Volatile. *)
let sk_step_req = Obs.sketch ~kind:Obs.Det "scrip_soa.requests_per_step"
let sk_step_ns = Obs.sketch ~kind:Obs.Volatile "scrip_soa.step_ns"

type t = {
  params : Scrip.params;
  part : Soa.part;
  scrip : Soa.I32.t;
  kind : Soa.I8.t;
  thresh : Soa.I32.t;
  util : Soa.F64.t;
  ex : Soa.Exchange.t;
  base : Prng.t;  (* never advanced: split per (step, shard) *)
  total_scrip : int;
  k_max : int;
  (* Per-shard tallies for the parallel phase, 5 slots per shard:
     requests, satisfied, starved, unserved, cross-shard posts. Each
     shard writes only its own slots. *)
  tallies : int array;
  mutable steps : int;
  mutable requests : int;
  mutable satisfied : int;
  mutable starved : int;
  mutable unserved : int;
  mutable cross_shard : int;
  mutable flushes : int;
}

type soa_stats = {
  n : int;
  shards : int;
  steps : int;
  requests : int;
  satisfied : int;
  starved : int;
  unserved : int;
  cross_shard : int;
  flushes : int;
  total_scrip : int;
  dist : int array;
  mean_balance : float;
  avg_utility : float array;
}

let create ?(shards = 64) ~seed ~params ~kind_of ~money_per_agent () =
  let n = params.Scrip.n in
  if n < 2 then invalid_arg "Scrip_soa.create: need n >= 2";
  let part = Soa.partition ~n ~shards in
  let scrip = Soa.I32.create n in
  let kind = Soa.I8.create n in
  let thresh = Soa.I32.create n in
  let util = Soa.F64.create n in
  let k_max = ref 1 in
  for i = 0 to n - 1 do
    (match kind_of i with
    | Scrip.Standard k ->
      Soa.I8.uset kind i k_standard;
      Soa.I32.uset thresh i k;
      if k > !k_max then k_max := k
    | Scrip.Hoarder -> Soa.I8.uset kind i k_hoarder
    | Scrip.Altruist -> Soa.I8.uset kind i k_altruist)
  done;
  let total_scrip = int_of_float (money_per_agent *. float_of_int n) in
  (* Round-robin deal, closed form (same as Scrip.simulate). *)
  let base_deal = total_scrip / n and extra = total_scrip mod n in
  for i = 0 to n - 1 do
    Soa.I32.uset scrip i (base_deal + if i < extra then 1 else 0)
  done;
  {
    params;
    part;
    scrip;
    kind;
    thresh;
    util;
    ex = Soa.Exchange.create ~shards:(Soa.shards part);
    base = Prng.create seed;
    total_scrip;
    k_max = !k_max;
    tallies = Array.make (Soa.shards part * 5) 0;
    steps = 0;
    requests = 0;
    satisfied = 0;
    starved = 0;
    unserved = 0;
    cross_shard = 0;
    flushes = 0;
  }

let willing t v =
  if Soa.I8.uget t.kind v = k_standard then
    Soa.I32.uget t.scrip v < Soa.I32.uget t.thresh v
  else true

(* One service: chooser pays benefit's worth, volunteer bears the cost;
   scrip moves unless the volunteer is an altruist. *)
let serve t c v =
  Soa.F64.uset t.util c (Soa.F64.uget t.util c +. t.params.Scrip.benefit);
  Soa.F64.uset t.util v (Soa.F64.uget t.util v -. t.params.Scrip.cost);
  if Soa.I8.uget t.kind v <> k_altruist then begin
    Soa.I32.uset t.scrip c (Soa.I32.uget t.scrip c - 1);
    Soa.I32.uset t.scrip v (Soa.I32.uget t.scrip v + 1)
  end

let step ?(pool = Pool.serial) t =
  Obs.span "scrip_soa.step" (fun () ->
    Obs.timed sk_step_ns @@ fun () ->
    let n = Soa.n t.part and shards = Soa.shards t.part in
    Array.fill t.tallies 0 (Array.length t.tallies) 0;
    let shard_ids = Array.init shards Fun.id in
    (* Parallel phase: request generation only. Each shard draws nloc
       (chooser, probe) pairs from its own split stream and posts them —
       same-shard pairs included, into the (s, s) buffer. Both draws are
       state-independent, so nothing here reads a column another shard
       could write; all state changes happen in the flush below. *)
    Pool.iter_grid pool
      (fun s ->
        let rng = Prng.split t.base ((t.steps * shards) + s) in
        let lo, hi = Soa.bounds t.part s in
        let nloc = hi - lo in
        let off = s * 5 in
        for _ = 1 to nloc do
          (* Chooser uniform over the whole population, not the shard:
             restricting slot i's chooser to shard s makes that slot's
             kernel favour configurations by shard-local wealth, a
             stratification bias the chi-square test detects at n ≥ 10⁵.
             The globally-uniform probe kernel is doubly stochastic, so
             every slot preserves the uniform law exactly. *)
          let c = Prng.int rng n in
          if Soa.I8.uget t.kind c <> k_hoarder then begin
            (* One uniform probe among the n − 1 other agents: served
               volunteers end up uniform among willing agents — the KFH
               conditional law — and the probe pair is independent of
               the evolving balances. *)
            let v = Prng.int rng (n - 1) in
            let v = if v >= c then v + 1 else v in
            let dst = Soa.shard_of t.part v in
            if dst <> s then t.tallies.(off + 4) <- t.tallies.(off + 4) + 1;
            Soa.Exchange.post t.ex ~src:s ~dst c v
          end
        done)
      shard_ids;
    (* Barrier passed: execute every request sequentially in the
       Exchange's fixed (src, dst, posting order) replay, evaluating the
       balance and willingness gates at execution time. This makes the
       batch an exact sequential run of the probe chain — a doubly
       stochastic walk on the fixed-money configuration slab — whose
       stationary law is uniform there, hence the {!Steady_state}
       max-entropy marginal. Applying gates at probe time instead
       (e.g. serving same-shard pairs mid-phase) measurably squeezes the
       stationary histogram toward its middle bins. *)
    let req = ref 0 and sat = ref 0 and sta = ref 0 and uns = ref 0 and crx = ref 0 in
    for s = 0 to shards - 1 do
      crx := !crx + t.tallies.((s * 5) + 4)
    done;
    let _replayed =
      Soa.Exchange.flush t.ex (fun ~src:_ ~dst:_ c v ->
          incr req;
          if Soa.I32.uget t.scrip c < 1 then incr sta
          else if willing t v then begin
            serve t c v;
            incr sat
          end
          else incr uns)
    in
    t.requests <- t.requests + !req;
    t.satisfied <- t.satisfied + !sat;
    t.starved <- t.starved + !sta;
    t.unserved <- t.unserved + !uns;
    t.cross_shard <- t.cross_shard + !crx;
    t.flushes <- t.flushes + 1;
    t.steps <- t.steps + 1;
    Obs.incr c_steps;
    Obs.incr c_flushes;
    Obs.add2 c_requests !req c_satisfied !sat;
    Obs.add c_cross !crx;
    Obs.observe_sk sk_step_req !req)

let stats t =
  let n = Soa.n t.part in
  let dist = Array.make (t.k_max + 2) 0 in
  let kind_sum = [| 0.0; 0.0; 0.0 |] and kind_n = [| 0; 0; 0 |] in
  for i = 0 to n - 1 do
    let bal = Soa.I32.uget t.scrip i in
    let j = if bal > t.k_max then t.k_max + 1 else bal in
    dist.(j) <- dist.(j) + 1;
    let k = Soa.I8.uget t.kind i in
    kind_sum.(k) <- kind_sum.(k) +. Soa.F64.uget t.util i;
    kind_n.(k) <- kind_n.(k) + 1
  done;
  let total = ref 0 in
  for i = 0 to n - 1 do
    total := !total + Soa.I32.uget t.scrip i
  done;
  {
    n;
    shards = Soa.shards t.part;
    steps = t.steps;
    requests = t.requests;
    satisfied = t.satisfied;
    starved = t.starved;
    unserved = t.unserved;
    cross_shard = t.cross_shard;
    flushes = t.flushes;
    total_scrip = !total;
    dist;
    mean_balance = float_of_int !total /. float_of_int n;
    avg_utility =
      Array.init 3 (fun k ->
          if kind_n.(k) = 0 then 0.0
          else kind_sum.(k) /. float_of_int kind_n.(k));
  }

let run ?(jobs = 1) ?shards ~seed ~steps ~params ~kind_of ~money_per_agent () =
  let t = create ?shards ~seed ~params ~kind_of ~money_per_agent () in
  let pool = Pool.create ~domains:jobs () in
  for _ = 1 to steps do
    step ~pool t
  done;
  stats t

let goodness_of_fit st ~threshold ~money_per_agent =
  let analytic = Steady_state.max_entropy ~threshold ~money_per_agent in
  (* Pad with zero-probability cells (hoarder overflow bin and any gap
     between the common threshold and k_max) to match [dist]. *)
  let expected = Array.make (Array.length st.dist) 0.0 in
  Array.blit analytic 0 expected 0
    (min (Array.length analytic) (Array.length expected));
  Steady_state.chi_square ~observed:st.dist ~expected
