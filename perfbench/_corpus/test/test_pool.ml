(* Property tests for the deterministic domain pool (Bn_util.Pool) and the
   indexed PRNG splitting (Prng.split) it relies on: parallel execution
   must be observationally identical to the serial loop for any domain
   count, and split streams must be reproducible and non-colliding. *)

module B = Beyond_nash

let pool_map_matches_list_map =
  QCheck.Test.make ~count:50 ~name:"pool: map ~domains:d = List.map for d in 1..8"
    QCheck.(pair (int_range 1 8) (list_of_size (Gen.int_range 0 200) small_int))
    (fun (d, xs) ->
      let f x = (x * 7919) lxor (x lsl 3) in
      let pool = B.Pool.create ~domains:d () in
      B.Pool.map pool f xs = List.map f xs)

let pool_map_array_matches =
  QCheck.Test.make ~count:50 ~name:"pool: map_array = Array.map"
    QCheck.(pair (int_range 1 8) (array_of_size (Gen.int_range 0 200) small_int))
    (fun (d, xs) ->
      let f x = x * x in
      let pool = B.Pool.create ~domains:d () in
      B.Pool.map_array pool f xs = Array.map f xs)

let pool_map_array_steal_matches =
  QCheck.Test.make ~count:50 ~name:"pool: map_array_steal = Array.map for d in 1..8"
    QCheck.(pair (int_range 1 8) (array_of_size (Gen.int_range 0 200) small_int))
    (fun (d, xs) ->
      (* Skewed per-item cost so stealing actually happens at d > 1. *)
      let f x =
        let n = if x mod 7 = 0 then 5000 else 5 in
        let acc = ref x in
        for i = 1 to n do
          acc := (!acc * 31) lxor i
        done;
        !acc
      in
      let pool = B.Pool.create ~domains:d () in
      B.Pool.map_array_steal pool f xs = Array.map f xs)

let pool_iter_grid_covers_all_slots =
  QCheck.Test.make ~count:50 ~name:"pool: iter_grid touches each index exactly once"
    QCheck.(pair (int_range 1 8) (int_range 0 300))
    (fun (d, n) ->
      let pool = B.Pool.create ~domains:d () in
      let out = Array.make n 0 in
      B.Pool.iter_grid pool (fun i -> out.(i) <- out.(i) + (2 * i) + 1) (Array.init n Fun.id);
      out = Array.init n (fun i -> (2 * i) + 1))

let pool_find_first_matches_serial =
  QCheck.Test.make ~count:100 ~name:"pool: find_first returns the lowest-index hit"
    QCheck.(pair (int_range 1 8) (list_of_size (Gen.int_range 0 100) small_int))
    (fun (d, xs) ->
      let f x = if x mod 3 = 0 then Some (x * 10) else None in
      let arr = Array.of_list xs in
      let pool = B.Pool.create ~domains:d () in
      B.Pool.find_first pool f arr = List.find_map f xs)

let draws rng k = List.init k (fun _ -> B.Prng.bits64 rng)

let split_reproducible =
  QCheck.Test.make ~count:100 ~name:"prng: split is reproducible from the seed"
    QCheck.(pair small_int (int_range 0 1000))
    (fun (seed, i) ->
      let a = B.Prng.split (B.Prng.create seed) i in
      let b = B.Prng.split (B.Prng.create seed) i in
      draws a 50 = draws b 50)

let split_streams_non_colliding =
  (* 10k draws from each of two sibling streams (and the parent) share no
     64-bit value — the birthday bound for honest streams is ~1e-11, so any
     hit means the derivation is broken. *)
  QCheck.Test.make ~count:5 ~name:"prng: split streams pairwise non-colliding on 10k draws"
    QCheck.(pair small_int (int_range 0 100))
    (fun (seed, i) ->
      let parent = B.Prng.create seed in
      let a = B.Prng.split parent i and b = B.Prng.split parent (i + 1) in
      let seen = Hashtbl.create (3 * 10_000) in
      let stream_fresh rng =
        let ok = ref true in
        for _ = 1 to 10_000 do
          let v = B.Prng.bits64 rng in
          if Hashtbl.mem seen v then ok := false else Hashtbl.add seen v ()
        done;
        !ok
      in
      stream_fresh a && stream_fresh b && stream_fresh parent)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      pool_map_matches_list_map;
      pool_map_array_matches;
      pool_map_array_steal_matches;
      pool_iter_grid_covers_all_slots;
      pool_find_first_matches_serial;
      split_reproducible;
      split_streams_non_colliding;
    ]
