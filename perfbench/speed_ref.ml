(* The host-speed reference of every workload: the
   max-welfare correlated-equilibrium LPs of fixed bimatrix games, built
   and solved by code frozen in the benchmark's own files (the generator
   and LP below, [Frozen_simplex]), so that no change to lib/ can change
   its work. Timed between ops and between the steps of a long op, it
   tells how fast the host runs at that moment; see NOTES.md. *)

module S = Frozen_simplex

(* Eight 3x3, eight 4x4 and three 5x5 games, payoffs 0–9 from a fixed
   linear congruential generator; about 0.08 s of LPs. *)
let sizes = List.concat [ List.init 8 (fun _ -> 3); List.init 8 (fun _ -> 4); [ 5; 5; 5 ] ]

let games =
  let state = ref 2008 in
  let digit () =
    state := ((!state * 1103515245) + 12345) land 0x7fffffff;
    float ((!state lsr 16) mod 10)
  in
  List.map
    (fun n ->
      Array.init n (fun _ ->
          Array.init n (fun _ ->
              let a = digit () in
              (a, digit ()))))
    sizes

(* Maximise total payoff over distributions q on profiles (r, c),
   subject to sum q = 1 and, for each player, obedience to every
   recommendation against every deviation. *)
let lp_of_game u =
  let rows = Array.length u and cols = Array.length u.(0) in
  let k = rows * cols in
  let at r c = (r * cols) + c in
  let row_pay r c = fst u.(r).(c) and col_pay r c = snd u.(r).(c) in
  let objective = Array.init k (fun j -> row_pay (j / cols) (j mod cols) +. col_pay (j / cols) (j mod cols)) in
  let constraints = ref [ S.eq (Array.make k 1.0) 1.0 ] in
  let obey n m coeff =
    for a = 0 to n - 1 do
      for a' = 0 to n - 1 do
        if a <> a' then begin
          let coeffs = Array.make k 0.0 in
          for b = 0 to m - 1 do
            let j, d = coeff a a' b in
            coeffs.(j) <- d
          done;
          constraints := S.ge coeffs 0.0 :: !constraints
        end
      done
    done
  in
  obey rows cols (fun a a' c -> (at a c, row_pay a c -. row_pay a' c));
  obey cols rows (fun b b' r -> (at r b, col_pay r b -. col_pay r b'));
  { S.objective; constraints = !constraints }

let lps = lazy (Array.of_list (List.map lp_of_game games))

(* Seconds spent solving the LPs. The heap is not compacted first: the
   time after a compaction depends on the size of the live heap, that is
   on the workload, and without one it does not. *)
let time () =
  Array.fold_left
    (fun acc lp ->
      let t0 = Unix.gettimeofday () in
      (match S.solve lp with
      | S.Optimal _ -> ()
      | S.Infeasible | S.Unbounded -> failwith "speed reference: an LP has no optimum");
      acc +. (Unix.gettimeofday () -. t0))
    0. (Lazy.force lps)

let reference = { Harness.nominal_s = 0.08; run = time }
