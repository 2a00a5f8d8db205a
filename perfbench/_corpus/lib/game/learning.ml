type trace = { profile : Mixed.profile; rounds : int; final_regret : float }

module Obs = Bn_obs.Obs
module Flat = Normal_form.Flat

(* The dynamics are serial loops, so the incremental-EU bookkeeping is a
   pure function of (game, init, rounds): Det, asserted identical across
   [-j] and reruns in test_obs. A "recompute" is one player's deviation-EU
   vector rebuilt because some opponent mixture changed that round; a
   "skip" is the cached vector reused because no opponent coordinate
   changed (bitwise), which makes the reuse exact, not approximate. *)
let c_eu_recomputes = Obs.counter "learning.eu_recomputes"
let c_eu_skips = Obs.counter "learning.eu_skips"

(* Flat EU kernel: support-compressed product iteration over the per-player
   Bigarray payoff tables, with caller-owned scratch. The loops mirror
   [Mixed.iter_support] exactly — supports are the [p > 0.0] coordinates in
   action order, probabilities accumulate as the same left-to-right prefix
   products, and zero-probability profiles are skipped at the same spot —
   so every value below is bitwise-identical to the [Mixed.expected_payoff]
   evaluation it replaces (the deviator's point mass contributes a 1.0
   factor, a bitwise no-op). *)
type kernel = {
  n : int;
  acts : int array;
  strides : int array;
  tabs : Flat.ba array;
  supp_act : int array array;  (* per player: support actions, prefix *)
  supp_prob : float array array;
  supp_len : int array;
  pos : int array;  (* odometer position per level *)
  pref_pr : float array;  (* left-to-right probability prefixes *)
  pref_idx : int array;  (* matching flat-index prefixes *)
  opp : int array;  (* players ≠ i, in player order (fitness scratch) *)
}

let make_kernel g =
  let n = Normal_form.n_players g in
  let acts = Normal_form.actions g in
  {
    n;
    acts;
    strides = Array.init n (Normal_form.stride g);
    tabs = Array.init n (Flat.table g);
    supp_act = Array.map (fun m -> Array.make m 0) acts;
    supp_prob = Array.map (fun m -> Array.make m 0.0) acts;
    supp_len = Array.make n 0;
    pos = Array.make n 0;
    pref_pr = Array.make n 1.0;
    pref_idx = Array.make n 0;
    opp = Array.make (if n > 1 then n - 1 else 1) 0;
  }

let refresh_support k (prof : Mixed.profile) =
  for j = 0 to k.n - 1 do
    let s = prof.(j) in
    let acts = k.supp_act.(j) and probs = k.supp_prob.(j) in
    let len = ref 0 in
    for a = 0 to Array.length s - 1 do
      let p = Array.unsafe_get s a in
      if p > 0.0 then begin
        acts.(!len) <- a;
        probs.(!len) <- p;
        incr len
      end
    done;
    k.supp_len.(j) <- !len
  done

(* Expected payoff of player [i] under the refreshed supports: the full
   row-major support product, as [Mixed.expected_payoff] computes it. *)
let avg_eu k i =
  let n = k.n in
  let empty = ref false in
  for j = 0 to n - 1 do
    if k.supp_len.(j) = 0 then empty := true
  done;
  if !empty then 0.0
  else begin
    let tab = k.tabs.(i) in
    let acc = ref 0.0 in
    Array.fill k.pos 0 n 0;
    let recompute_from j0 =
      for j = j0 to n - 1 do
        let p = k.pos.(j) in
        k.pref_pr.(j) <-
          (if j = 0 then 1.0 else k.pref_pr.(j - 1)) *. k.supp_prob.(j).(p);
        k.pref_idx.(j) <-
          (if j = 0 then 0 else k.pref_idx.(j - 1)) + (k.supp_act.(j).(p) * k.strides.(j))
      done
    in
    recompute_from 0;
    let continue = ref true in
    while !continue do
      let pr = k.pref_pr.(n - 1) in
      if pr > 0.0 then
        acc := !acc +. (pr *. Bigarray.Array1.unsafe_get tab k.pref_idx.(n - 1));
      let rec bump j =
        if j < 0 then false
        else if k.pos.(j) + 1 < k.supp_len.(j) then begin
          k.pos.(j) <- k.pos.(j) + 1;
          recompute_from j;
          true
        end
        else begin
          k.pos.(j) <- 0;
          bump (j - 1)
        end
      in
      continue := bump (n - 1)
    done;
    !acc
  end

(* Deviation EUs of player [i]: [out.(a)] becomes the expected payoff of
   playing pure [a] against the opponents' refreshed supports — every
   action's sum accumulates over opponent combinations in the same
   row-major order [Mixed.iter_support] visits them. [out] must be
   0-filled by the caller. *)
let fitness k i (out : float array) =
  let n = k.n in
  let np = n - 1 in
  let tab = k.tabs.(i) in
  let st = k.strides.(i) in
  let mi = k.acts.(i) in
  if np = 0 then
    for a = 0 to mi - 1 do
      out.(a) <- out.(a) +. (1.0 *. Bigarray.Array1.unsafe_get tab (a * st))
    done
  else begin
    let empty = ref false in
    let w = ref 0 in
    for j = 0 to n - 1 do
      if j <> i then begin
        k.opp.(!w) <- j;
        incr w;
        if k.supp_len.(j) = 0 then empty := true
      end
    done;
    if not !empty then begin
      Array.fill k.pos 0 np 0;
      let recompute_from l0 =
        for l = l0 to np - 1 do
          let j = k.opp.(l) in
          let p = k.pos.(l) in
          k.pref_pr.(l) <-
            (if l = 0 then 1.0 else k.pref_pr.(l - 1)) *. k.supp_prob.(j).(p);
          k.pref_idx.(l) <-
            (if l = 0 then 0 else k.pref_idx.(l - 1)) + (k.supp_act.(j).(p) * k.strides.(j))
        done
      in
      recompute_from 0;
      let continue = ref true in
      while !continue do
        let pr = k.pref_pr.(np - 1) in
        if pr > 0.0 then begin
          let base = k.pref_idx.(np - 1) in
          for a = 0 to mi - 1 do
            out.(a) <- out.(a) +. (pr *. Bigarray.Array1.unsafe_get tab (base + (a * st)))
          done
        end;
        let rec bump l =
          if l < 0 then false
          else if k.pos.(l) + 1 < k.supp_len.(k.opp.(l)) then begin
            k.pos.(l) <- k.pos.(l) + 1;
            recompute_from l;
            true
          end
          else begin
            k.pos.(l) <- 0;
            bump (l - 1)
          end
        in
        continue := bump (np - 1)
      done
    end
  end

let check_profile_arity name g prof =
  let n = Normal_form.n_players g in
  if Array.length prof <> n then invalid_arg (name ^ ": profile arity");
  for i = 0 to n - 1 do
    if Array.length prof.(i) <> Normal_form.num_actions g i then
      invalid_arg (name ^ ": strategy arity")
  done

let fictitious_play ?init ?tol ~rounds g =
  let n = Normal_form.n_players g in
  let counts = Array.init n (fun i -> Array.make (Normal_form.num_actions g i) 0.0) in
  let current =
    match init with
    | Some p -> Array.copy p
    | None -> Array.make n 0
  in
  let k = make_kernel g in
  (* Empirical mixtures double as the kernel's input profile; NaN-seeded so
     every coordinate reads as changed on round 1. *)
  let emp = Array.init n (fun i -> Array.make (Normal_form.num_actions g i) Float.nan) in
  let devs = Array.init n (fun i -> Array.make (Normal_form.num_actions g i) 0.0) in
  let changed = Array.make n true in
  let executed = ref 0 in
  let stop = ref false in
  let round = ref 0 in
  while (not !stop) && !round < rounds do
    incr round;
    Array.iteri (fun i a -> counts.(i).(a) <- counts.(i).(a) +. 1.0) current;
    for i = 0 to n - 1 do
      let c = counts.(i) in
      let total = Array.fold_left ( +. ) 0.0 c in
      let e = emp.(i) in
      let ch = ref false in
      for a = 0 to Array.length c - 1 do
        let v = c.(a) /. total in
        if v <> e.(a) then begin
          ch := true;
          e.(a) <- v
        end
      done;
      changed.(i) <- !ch
    done;
    executed := !round;
    (match tol with
    | Some tol -> if Nash.max_regret g emp < tol then stop := true
    | None -> ());
    if not !stop then begin
      refresh_support k emp;
      for i = 0 to n - 1 do
        let opp_changed = ref false in
        for j = 0 to n - 1 do
          if j <> i && changed.(j) then opp_changed := true
        done;
        let d = devs.(i) in
        (* Round 1 seeds the cache even when there is no opponent to have
           changed (n = 1). *)
        if !opp_changed || !round = 1 then begin
          Obs.incr c_eu_recomputes;
          Array.fill d 0 (Array.length d) 0.0;
          fitness k i d
        end
        else Obs.incr c_eu_skips;
        (* Lowest-index best response within the 1e-9 tie band — the head
           of [Nash.pure_best_responses]. *)
        let best = ref neg_infinity in
        for a = 0 to Array.length d - 1 do
          if d.(a) > !best then best := d.(a)
        done;
        let pick = ref (-1) in
        for a = Array.length d - 1 downto 0 do
          if Float.abs (d.(a) -. !best) <= 1e-9 then pick := a
        done;
        if !pick >= 0 then current.(i) <- !pick
      done
    end
  done;
  let profile = Array.map Mixed.of_weights counts in
  { profile; rounds = !executed; final_regret = Nash.max_regret g profile }

let replicator ?init ?(dt = 0.1) ?tol ~rounds g =
  let n = Normal_form.n_players g in
  let prof =
    match init with
    | Some p ->
      check_profile_arity "Learning.replicator" g p;
      Array.map Array.copy p
    | None -> Array.map Array.copy (Mixed.uniform_profile g)
  in
  let k = make_kernel g in
  let next = Array.init n (fun i -> Array.make (Normal_form.num_actions g i) 0.0) in
  let fit = Array.init n (fun i -> Array.make (Normal_form.num_actions g i) 0.0) in
  let avg = Array.make n 0.0 in
  let changed = Array.make n true in
  let executed = ref 0 in
  let stop = ref false in
  let round = ref 0 in
  while (not !stop) && !round < rounds do
    incr round;
    refresh_support k prof;
    for i = 0 to n - 1 do
      let opp_changed = ref false in
      for j = 0 to n - 1 do
        if j <> i && changed.(j) then opp_changed := true
      done;
      if !opp_changed || !round = 1 then begin
        Obs.incr c_eu_recomputes;
        Array.fill fit.(i) 0 (Array.length fit.(i)) 0.0;
        fitness k i fit.(i)
      end
      else Obs.incr c_eu_skips;
      if !opp_changed || changed.(i) then avg.(i) <- avg_eu k i
    done;
    (* Simultaneous update: every player's new mixture is computed from the
       old profile, then normalized exactly as [Mixed.of_weights] does. *)
    for i = 0 to n - 1 do
      let s = prof.(i) and nx = next.(i) and f = fit.(i) in
      let m = Array.length s in
      for a = 0 to m - 1 do
        nx.(a) <- Float.max 1e-12 (s.(a) *. (1.0 +. (dt *. (f.(a) -. avg.(i)))))
      done;
      let total = Array.fold_left ( +. ) 0.0 nx in
      for a = 0 to m - 1 do
        nx.(a) <- nx.(a) /. total
      done
    done;
    for i = 0 to n - 1 do
      let s = prof.(i) and nx = next.(i) in
      let ch = ref false in
      for a = 0 to Array.length s - 1 do
        if nx.(a) <> s.(a) then ch := true
      done;
      changed.(i) <- !ch;
      prof.(i) <- nx;
      next.(i) <- s
    done;
    executed := !round;
    match tol with
    | Some tol -> if Nash.max_regret g prof < tol then stop := true
    | None -> ()
  done;
  { profile = prof; rounds = !executed; final_regret = Nash.max_regret g prof }

(* Reference implementations: the pre-kernel dynamics, every expected
   utility through [Mixed]. The QCheck agreement suite pins the incremental
   traces against these bitwise. *)

let fictitious_play_naive ?init ~rounds g =
  let n = Normal_form.n_players g in
  let counts = Array.init n (fun i -> Array.make (Normal_form.num_actions g i) 0.0) in
  let current =
    match init with
    | Some p -> Array.copy p
    | None -> Array.make n 0
  in
  for _ = 1 to rounds do
    Array.iteri (fun i a -> counts.(i).(a) <- counts.(i).(a) +. 1.0) current;
    let empirical = Array.map Mixed.of_weights counts in
    for i = 0 to n - 1 do
      match Nash.pure_best_responses g empirical ~player:i with
      | [] -> ()
      | a :: _ -> current.(i) <- a
    done
  done;
  let profile = Array.map Mixed.of_weights counts in
  { profile; rounds; final_regret = Nash.max_regret g profile }

let replicator_naive ?init ?(dt = 0.1) ~rounds g =
  let n = Normal_form.n_players g in
  let prof =
    match init with
    | Some p -> Array.map Array.copy p
    | None -> Array.map Array.copy (Mixed.uniform_profile g)
  in
  for _ = 1 to rounds do
    let updated =
      Array.init n (fun i ->
          let m = Normal_form.num_actions g i in
          let avg = Mixed.expected_payoff g prof i in
          let fitness =
            Array.init m (fun a -> Mixed.expected_payoff_vs_pure g prof ~player:i ~action:a)
          in
          let raw =
            Array.init m (fun a ->
                Float.max 1e-12 (prof.(i).(a) *. (1.0 +. (dt *. (fitness.(a) -. avg)))))
          in
          Mixed.of_weights raw)
    in
    Array.blit updated 0 prof 0 n
  done;
  { profile = prof; rounds; final_regret = Nash.max_regret g prof }

let best_response_iteration ?init ~max_rounds g =
  let n = Normal_form.n_players g in
  let current = match init with Some p -> Array.copy p | None -> Array.make n 0 in
  let rec go round =
    if Nash.is_pure_nash g current then Some (Array.copy current)
    else if round >= max_rounds then None
    else begin
      let moved = ref false in
      for i = 0 to n - 1 do
        if not !moved then begin
          let prof = Mixed.pure_profile g current in
          let best = Nash.best_response_value g prof ~player:i in
          let own = Mixed.expected_payoff g prof i in
          if best -. own > 1e-9 then begin
            (match Nash.pure_best_responses g prof ~player:i with
            | [] -> ()
            | a :: _ -> current.(i) <- a);
            moved := true
          end
        end
      done;
      if !moved then go (round + 1) else Some (Array.copy current)
    end
  in
  go 0
