(* Two-player evaluations run on the flat kernel ({!Normal_form.Flat}):
   unboxed loops over the per-player Bigarray tables. Every fast path below
   is bitwise-identical to the [Mixed.expected_payoff] path it replaces —
   same left-to-right support products, 0.0-initialized accumulators and
   [pr > 0.0] skips; [1.0 *. x = x] and [0.0 +. x = x] in IEEE, so the
   point-mass fast path and the support product agree bit-for-bit. The
   Mixed-based generic path is retained for n ≠ 2 and, as
   [max_regret_naive], as the reference oracle for the agreement tests. *)

module Flat = Normal_form.Flat

let eu2 g prof ~player =
  let tab = Flat.table g player in
  let st0 = Normal_form.stride g 0 and st1 = Normal_form.stride g 1 in
  let s0 = prof.(0) and s1 = prof.(1) in
  let acc = ref 0.0 in
  for a = 0 to Array.length s0 - 1 do
    let pa = Array.unsafe_get s0 a in
    if pa > 0.0 then begin
      let base = a * st0 in
      for b = 0 to Array.length s1 - 1 do
        let pb = Array.unsafe_get s1 b in
        if pb > 0.0 then begin
          let pr = pa *. pb in
          if pr > 0.0 then
            acc := !acc +. (pr *. Bigarray.Array1.get tab (base + (b * st1)))
        end
      done
    end
  done;
  !acc

(* EU of [player] deviating to the pure [action] while the other follows
   [prof]: the deviator's point mass contributes a bitwise no-op 1.0 factor
   to each support product. *)
let eu2_dev g prof ~player ~action =
  let tab = Flat.table g player in
  let st0 = Normal_form.stride g 0 and st1 = Normal_form.stride g 1 in
  let other = prof.(1 - player) in
  let acc = ref 0.0 in
  if player = 0 then begin
    let base = action * st0 in
    for b = 0 to Array.length other - 1 do
      let pb = Array.unsafe_get other b in
      if pb > 0.0 then
        acc := !acc +. (pb *. Bigarray.Array1.get tab (base + (b * st1)))
    done
  end
  else begin
    let base = action * st1 in
    for a = 0 to Array.length other - 1 do
      let pa = Array.unsafe_get other a in
      if pa > 0.0 then
        acc := !acc +. (pa *. Bigarray.Array1.get tab ((a * st0) + base))
    done
  end;
  !acc

let dev_value g prof ~player ~action =
  if Normal_form.n_players g = 2 then eu2_dev g prof ~player ~action
  else Mixed.expected_payoff_vs_pure g prof ~player ~action

let own_value g prof ~player =
  if Normal_form.n_players g = 2 then eu2 g prof ~player
  else Mixed.expected_payoff g prof player

let best_response_value g prof ~player =
  let best = ref neg_infinity in
  for a = 0 to Normal_form.num_actions g player - 1 do
    let v = dev_value g prof ~player ~action:a in
    if v > !best then best := v
  done;
  !best

let pure_best_responses g prof ~player =
  let best = best_response_value g prof ~player in
  let acc = ref [] in
  for a = Normal_form.num_actions g player - 1 downto 0 do
    let v = dev_value g prof ~player ~action:a in
    if Float.abs (v -. best) <= 1e-9 then acc := a :: !acc
  done;
  !acc

let regret g prof ~player =
  let br = best_response_value g prof ~player in
  let current = own_value g prof ~player in
  Float.max 0.0 (br -. current)

let max_regret g prof =
  let worst = ref 0.0 in
  for i = 0 to Normal_form.n_players g - 1 do
    let r = regret g prof ~player:i in
    if r > !worst then worst := r
  done;
  !worst

(* Reference oracle: the pre-kernel implementation, all evaluations through
   [Mixed.expected_payoff]. The QCheck agreement suite pins
   [max_regret == max_regret_naive] bitwise. *)
let max_regret_naive g prof =
  let worst = ref 0.0 in
  for player = 0 to Normal_form.n_players g - 1 do
    let br = ref neg_infinity in
    for a = 0 to Normal_form.num_actions g player - 1 do
      let v = Mixed.expected_payoff_vs_pure g prof ~player ~action:a in
      if v > !br then br := v
    done;
    let current = Mixed.expected_payoff g prof player in
    let r = Float.max 0.0 (!br -. current) in
    if r > !worst then worst := r
  done;
  !worst

let is_nash ?(eps = 1e-9) g prof = max_regret g prof <= eps

(* On a fully-pure profile every EU evaluation collapses to
   [0.0 +. table read], so the Nash check is a stride-shifted deviation
   scan on the flat index — no Mixed profiles, no allocation. *)
let is_pure_nash ?(eps = 1e-9) g pure_acts =
  let n = Normal_form.n_players g in
  let idx = Normal_form.index_of g pure_acts in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    let player = !i in
    let tab = Flat.table g player in
    let st = Normal_form.stride g player in
    let base = idx - (pure_acts.(player) * st) in
    let best = ref neg_infinity in
    for a = 0 to Normal_form.num_actions g player - 1 do
      let v = 0.0 +. Bigarray.Array1.get tab (base + (a * st)) in
      if v > !best then best := v
    done;
    let current = 0.0 +. Bigarray.Array1.get tab idx in
    if Float.max 0.0 (!best -. current) > eps then ok := false;
    incr i
  done;
  !ok

let pure_equilibria ?eps g =
  let acc = ref [] in
  Normal_form.iter_profiles g (fun p -> if is_pure_nash ?eps g p then acc := Array.copy p :: !acc);
  List.rev !acc

(* Gaussian elimination with partial pivoting on caller-owned scratch —
   the same pivot choice, 1e-12 singularity threshold and back-substitution
   as [Bn_util.Linalg.solve], minus its per-call copies. [m]'s first [nv]
   rows hold the [nv × (nv+1)] augmented system (rows at least [nv+1] wide;
   the rows are permuted in place); the solution lands in [x.(0 .. nv−1)].
   Returns [false] on a (near-)singular system. *)
let solve_scratch m x nv =
  let singular = ref false in
  (try
     for col = 0 to nv - 1 do
       let pivot = ref col in
       for r = col + 1 to nv - 1 do
         if Float.abs m.(r).(col) > Float.abs m.(!pivot).(col) then pivot := r
       done;
       if Float.abs m.(!pivot).(col) < 1e-12 then begin
         singular := true;
         raise Exit
       end;
       let tmp = m.(col) in
       m.(col) <- m.(!pivot);
       m.(!pivot) <- tmp;
       for r = col + 1 to nv - 1 do
         let factor = m.(r).(col) /. m.(col).(col) in
         for c = col to nv do
           m.(r).(c) <- m.(r).(c) -. (factor *. m.(col).(c))
         done
       done
     done
   with Exit -> ());
  if !singular then false
  else begin
    for i = nv - 1 downto 0 do
      let s = ref m.(i).(nv) in
      for j = i + 1 to nv - 1 do
        s := !s -. (m.(i).(j) *. x.(j))
      done;
      x.(i) <- !s /. m.(i).(i)
    done;
    true
  end

(* Support enumeration for 2-player games: for supports (s1, s2) of equal
   size, the row player's mixture must make every column in s2 indifferent,
   and symmetrically. Solving the two linear systems and verifying the
   equilibrium conditions yields every equilibrium of a nondegenerate
   game. *)
let support_enumeration_2p ?(eps = 1e-7) g =
  if Normal_form.n_players g <> 2 then
    invalid_arg "Nash.support_enumeration_2p: two-player games only";
  let m1 = Normal_form.num_actions g 0 and m2 = Normal_form.num_actions g 1 in
  let tab0 = Flat.table g 0 and tab1 = Flat.table g 1 in
  let st0 = Normal_form.stride g 0 and st1 = Normal_form.stride g 1 in
  let u1 i j = Bigarray.Array1.unsafe_get tab0 ((i * st0) + (j * st1)) in
  let u2 i j = Bigarray.Array1.unsafe_get tab1 ((i * st0) + (j * st1)) in
  let results = ref [] in
  let add prof =
    if not (List.exists (fun p -> Mixed.equal ~eps:1e-6 p prof) !results) then
      results := prof :: !results
  in
  (* Shared scratch for every indifference system in the sweep: supports are
     at most max(m1,m2) actions, so systems are at most (mmax+1) square. *)
  let mmax = if m1 > m2 then m1 else m2 in
  let scratch = Array.init (mmax + 1) (fun _ -> Array.make (mmax + 2) 0.0) in
  let xsol = Array.make (mmax + 1) 0.0 in
  (* Solve for the mixture of [mixer] (over support s_mix) that makes
     [other] indifferent across s_other; unknowns: probs + common value.
     One indifference equation per action of [other], plus sum-to-1. *)
  let solve_indifference ~payoff_other (s_mix : int array) (s_other : int array) =
    let k = Array.length s_mix in
    let nv = k + 1 in
    for r = 0 to k - 1 do
      let row = scratch.(r) in
      for c = 0 to k - 1 do
        row.(c) <- payoff_other s_mix.(c) s_other.(r)
      done;
      row.(k) <- -1.0;
      row.(nv) <- 0.0
    done;
    let last = scratch.(k) in
    for c = 0 to k - 1 do
      last.(c) <- 1.0
    done;
    last.(k) <- 0.0;
    last.(nv) <- 1.0;
    if not (solve_scratch scratch xsol nv) then None
    else begin
      let ok = ref true in
      for c = 0 to k - 1 do
        if xsol.(c) < -.eps then ok := false
      done;
      if !ok then Some (Array.sub xsol 0 k) else None
    end
  in
  let expand full (support : int array) probs =
    let s = Array.make full 0.0 in
    Array.iteri (fun idx a -> s.(a) <- Float.max 0.0 probs.(idx)) support;
    let total = Array.fold_left ( +. ) 0.0 s in
    Array.map (fun p -> p /. total) s
  in
  let u1_flipped j i = u1 i j in
  let pure_pair = Array.make 2 0 in
  (* Supports are enumerated with an in-place combination odometer instead
     of materializing [Combin.subsets_up_to] lists: only equal-size pairs
     ever yield a square indifference system, and the visit order — size
     ascending, lexicographic within a size, s1-major — is exactly the
     order the filtered subset×subset product used, so the result list is
     unchanged. [next_comb] advances [c] to the lexicographic successor
     among size-|c| subsets of {0..m-1}. *)
  let next_comb c m =
    let k = Array.length c in
    let i = ref (k - 1) in
    while !i >= 0 && c.(!i) = m - k + !i do
      decr i
    done;
    if !i < 0 then false
    else begin
      c.(!i) <- c.(!i) + 1;
      for j = !i + 1 to k - 1 do
        c.(j) <- c.(j - 1) + 1
      done;
      true
    end
  in
  let kmax = if m1 < m2 then m1 else m2 in
  for k = 1 to kmax do
    let s1 = Array.init k Fun.id in
    let s2 = Array.init k Fun.id in
    let continue1 = ref true in
    while !continue1 do
      for i = 0 to k - 1 do
        s2.(i) <- i
      done;
      let continue2 = ref true in
      while !continue2 do
        (if k = 1 then begin
           (* Singleton supports: the two indifference systems are 2×2
              with determinant 1, always yielding probs = [1], so the
              candidate is exactly the pure pair — and accepting it on
              [max_regret ≤ eps] is the same verdict as the pure-Nash
              deviation scan (every EU involved is a plain table read). *)
           pure_pair.(0) <- s1.(0);
           pure_pair.(1) <- s2.(0);
           if is_pure_nash ~eps g pure_pair then add (Mixed.pure_profile g pure_pair)
         end
         else
           (* Row mixture makes column player indifferent on s2
              (payoff_other must be u2 as a function of (mixer's action,
              other's action)). *)
           match solve_indifference ~payoff_other:u2 s1 s2 with
           | None -> ()
           | Some p1 -> (
             match solve_indifference ~payoff_other:u1_flipped s2 s1 with
             | None -> ()
             | Some p2 ->
               let prof = [| expand m1 s1 p1; expand m2 s2 p2 |] in
               if
                 Mixed.is_valid prof.(0) && Mixed.is_valid prof.(1)
                 && max_regret g prof <= eps
               then add prof));
        continue2 := next_comb s2 m2
      done;
      continue1 := next_comb s1 m1
    done
  done;
  List.iter (fun p -> add (Mixed.pure_profile g p)) (pure_equilibria g);
  List.rev !results

let find_2p ?eps g =
  match support_enumeration_2p ?eps g with [] -> None | p :: _ -> Some p
