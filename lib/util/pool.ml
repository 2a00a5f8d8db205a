module Obs = Bn_obs.Obs

(* Pool calls happen under Robust's early-exit profile sweeps, and the
   number of chunks depends on the domain budget, so both counters are
   schedule-dependent. *)
let c_calls = Obs.counter ~kind:Obs.Volatile "pool.calls"
let c_chunks = Obs.counter ~kind:Obs.Volatile "pool.chunks"

(* How many items a worker completed outside its own range: pure scheduling
   telemetry, entirely timing-dependent. *)
let c_steals = Obs.counter ~kind:Obs.Volatile "pool.steals"
let sk_chunk_ns = Obs.sketch ~kind:Obs.Volatile "pool.chunk_ns"

type t = { budget : int }

let default_jobs () = Domain.recommended_domain_count ()

let create ?domains () =
  let d = match domains with Some d -> d | None -> default_jobs () in
  { budget = max 1 d }

let serial = { budget = 1 }

let domains t = t.budget

(* Contiguous chunk [lo, hi) handled by worker [j] of [d] over [n] items.
   Chunk boundaries depend only on (n, d), never on timing. *)
let chunk ~n ~d j = (j * n / d, (j + 1) * n / d)

(* Run [body j] on [d] workers: worker 0 on the calling domain, the rest on
   fresh domains, all joined before returning. Any exception from a worker
   is re-raised (spawned workers first, in worker order). *)
let run_workers ~d body =
  Obs.incr c_calls;
  Obs.add c_chunks d;
  (* One span per chunk, recorded on the worker's own domain; its wall
     time is the chunk's busy time, also sketched (when timing is on) so
     the chunk-size imbalance shows up as p50-vs-p99 spread. *)
  let body j =
    Obs.span "pool.chunk"
      ~args:(fun () -> [ ("worker", Obs.I j); ("domains", Obs.I d) ])
      (fun () -> Obs.timed sk_chunk_ns (fun () -> body j))
  in
  if d <= 1 then body 0
  else begin
    let spawned = Array.init (d - 1) (fun i -> Domain.spawn (fun () -> body (i + 1))) in
    let mine = try Ok (body 0) with e -> Error e in
    Array.iter Domain.join spawned;
    match mine with Ok () -> () | Error e -> raise e
  end

let effective_domains t n = min t.budget (max 1 n)

let iter_grid t f grid =
  let n = Array.length grid in
  if n > 0 then begin
    let d = effective_domains t n in
    run_workers ~d (fun j ->
        let lo, hi = chunk ~n ~d j in
        for i = lo to hi - 1 do
          f grid.(i)
        done)
  end

let map_array t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    let d = effective_domains t n in
    run_workers ~d (fun j ->
        let lo, hi = chunk ~n ~d j in
        for i = lo to hi - 1 do
          out.(i) <- Some (f xs.(i))
        done);
    Array.map (function Some y -> y | None -> assert false) out
  end

let map t f xs = Array.to_list (map_array t f (Array.of_list xs))

(* Work-stealing variant of [map_array]: indices are still partitioned into
   the same contiguous ranges, but ownership of an {e index} is decided by a
   per-index CAS claim rather than by the partition, so a worker that
   drains its range keeps going on other ranges instead of idling. Each
   worker walks its own range front-to-back, then victims' ranges
   back-to-front (starting from the next range up), so owner and thief
   approach from opposite ends and contend only on a range's last pending
   items. Every result still lands in the slot of the index it came from —
   which indices were stolen affects timing and the [pool.steals] counter
   only, never the returned array. *)
let map_array_steal t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let d = effective_domains t n in
    if d <= 1 then begin
      let out = ref [||] in
      run_workers ~d:1 (fun _ -> out := Array.map f xs);
      !out
    end
    else begin
      let out = Array.make n None in
      let claimed = Array.init n (fun _ -> Atomic.make false) in
      (* Claim-then-run: the CAS hands each index to exactly one worker. *)
      let attempt i =
        if Atomic.compare_and_set claimed.(i) false true then begin
          out.(i) <- Some (f xs.(i));
          true
        end
        else false
      in
      run_workers ~d (fun j ->
          let lo, hi = chunk ~n ~d j in
          for i = lo to hi - 1 do
            ignore (attempt i)
          done;
          for k = 1 to d - 1 do
            let v = (j + k) mod d in
            let vlo, vhi = chunk ~n ~d v in
            for i = vhi - 1 downto vlo do
              if attempt i then Obs.incr c_steals
            done
          done);
      Array.map (function Some y -> y | None -> assert false) out
    end
  end

let find_first t f xs =
  let n = Array.length xs in
  if n = 0 then None
  else begin
    let d = effective_domains t n in
    (* Lowest index with a hit so far; workers stop once their whole
       remaining range lies above it. Purely an early-exit: the final
       answer is the minimum over per-worker first hits. *)
    let watermark = Atomic.make n in
    let rec lower i =
      let cur = Atomic.get watermark in
      if i < cur && not (Atomic.compare_and_set watermark cur i) then lower i
    in
    let hits = Array.make d None in
    run_workers ~d (fun j ->
        let lo, hi = chunk ~n ~d j in
        let i = ref lo in
        let stop = ref false in
        while (not !stop) && !i < hi && !i < Atomic.get watermark do
          (match f xs.(!i) with
          | Some _ as y ->
            hits.(j) <- Some (!i, y);
            lower !i;
            stop := true
          | None -> ());
          incr i
        done);
    let best = ref None in
    Array.iter
      (function
        | Some (i, y) -> (
          match !best with Some (i0, _) when i0 <= i -> () | _ -> best := Some (i, y))
        | None -> ())
      hits;
    match !best with Some (_, y) -> y | None -> None
  end
