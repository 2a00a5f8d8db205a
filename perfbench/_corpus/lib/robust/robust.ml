open Bn_game
module Obs = Bn_obs.Obs

(* [robust.checks] counts top-level verdict computations (check_* entry
   points), which execute unconditionally even inside parallel profile
   sweeps (Pool.map_array visits every profile): deterministic. The scan
   counters sit under Pool.find_first's early exit — how many (C, T)
   pairs and deviations get scanned before the watermark stops a worker
   depends on the domain budget — so they are Volatile. *)
let c_checks = Obs.counter "robust.checks"
let c_searches = Obs.counter ~kind:Obs.Volatile "robust.searches"
let c_pairs = Obs.counter ~kind:Obs.Volatile "robust.pairs_scanned"
let c_devs = Obs.counter ~kind:Obs.Volatile "robust.deviation_checks"
let sk_check_ns = Obs.sketch ~kind:Obs.Volatile "robust.check_ns"

type variant = Strong | Weak

type violation = {
  coalition : int list;
  traitors : int list;
  deviation : (int * int) list;
  victim : int;
  before : float;
  after : float;
}

type verdict = Holds | Fails of violation

let pp_violation ppf v =
  let pp_set = Fmt.(list ~sep:comma int) in
  Format.fprintf ppf "C={%a} T={%a} deviation=[%s] victim=%d: %.3f -> %.3f" pp_set
    v.coalition pp_set v.traitors
    (String.concat "; " (List.map (fun (i, a) -> Printf.sprintf "%d:%d" i a) v.deviation))
    v.victim v.before v.after

let baseline g prof = Array.init (Normal_form.n_players g) (Mixed.expected_payoff g prof)

(* All (C, T) pairs with disjoint C (≤ k) and T (≤ t), in the canonical
   enumeration order: coalitions outermost (smallest first, as produced by
   [Combin.subsets_up_to]), traitor sets within. *)
let coalition_traitor_pairs n ~k ~t =
  let coalitions = if k = 0 then [ [] ] else [] :: Bn_util.Combin.subsets_up_to n k in
  List.concat_map
    (fun coalition ->
      let in_coalition = Array.make n false in
      List.iter (fun i -> in_coalition.(i) <- true) coalition;
      let rest =
        Array.of_list (List.filter (fun i -> not in_coalition.(i)) (List.init n Fun.id))
      in
      let rest_count = Array.length rest in
      let traitor_sets =
        if t = 0 then [ [] ]
        else
          [] ::
          List.map
            (List.map (fun idx -> rest.(idx)))
            (Bn_util.Combin.subsets_up_to rest_count (min t rest_count))
      in
      List.filter_map
        (fun traitors ->
          if coalition = [] && traitors = [] then None else Some (coalition, traitors))
        traitor_sets)
    coalitions

let pool_of_jobs = function
  | None -> Bn_util.Pool.serial
  | Some j -> Bn_util.Pool.create ~domains:j ()

exception Stop

(* Scan every joint pure deviation by [deviators] from [prof] for the first
   assignment on which [test] fires. Two evaluation strategies:

   - pure base profile ([pure_p = Some p]): the base flat table index is
     shifted by stride deltas as the assignment odometer advances — only
     positions at or above the lowest changed coordinate are recomputed, so
     each deviated payoff is a single O(1) table read, with no profile
     copies and no per-assignment allocation;
   - mixed base profile: one copy of the profile per deviator set, whose
     deviator rows are point masses mutated in place as the odometer
     advances; each evaluation is a support-product expectation, so its
     cost scales with the non-deviators' support sizes only.

   [test] receives [payoff_after] (deviated expected payoff per player) and
   a lazy [assignment] thunk that materializes the (player, action) list
   only when a hit is reported. *)
let scan_assignments g ~dims ~prof ~pure_p ~deviators test =
  let m = Array.length deviators in
  let result = ref None in
  (* Deviation checks are counted analytically so the odometer loop stays
     untouched: a completed scan visits the full assignment product, and an
     early exit visits exactly the row-major position of the hit (+1),
     recoverable from the odometer state at the hit site. *)
  let total = ref 1 in
  for j = 0 to m - 1 do
    total := !total * dims.(deviators.(j))
  done;
  let checks = total in
  let run payoff_after sync =
    try
      Bn_util.Combin.iter_joint_assignments deviators dims (fun acts changed ->
          sync acts changed;
          let assignment () =
            Array.to_list (Array.mapi (fun j a -> (deviators.(j), a)) acts)
          in
          match test ~payoff_after ~assignment with
          | Some _ as r ->
            result := r;
            let pos = ref 0 in
            Array.iteri (fun j a -> pos := (!pos * dims.(deviators.(j))) + a) acts;
            checks := !pos + 1;
            raise Stop
          | None -> ())
    with Stop -> ()
  in
  (match pure_p with
  | Some p ->
    let base_idx = Normal_form.index_of g p in
    let idx = ref base_idx in
    (* pref.(j): flat index with deviations 0 … j applied to the base. *)
    let pref = Array.make (max m 1) base_idx in
    run
      (fun i -> 0.0 +. Normal_form.payoff_by_index g !idx i)
      (fun acts changed ->
        for j = changed to m - 1 do
          let prev = if j = 0 then base_idx else pref.(j - 1) in
          let d = deviators.(j) in
          pref.(j) <- Normal_form.shift_index g prev ~player:d ~from_:p.(d) ~to_:acts.(j)
        done;
        idx := if m = 0 then base_idx else pref.(m - 1))
  | None ->
    let deviated = Array.copy prof in
    Array.iter
      (fun d ->
        let s = Array.make (Normal_form.num_actions g d) 0.0 in
        s.(0) <- 1.0;
        deviated.(d) <- s)
      deviators;
    let cur = Array.make (max m 1) 0 in
    run
      (fun i -> Mixed.expected_payoff g deviated i)
      (fun acts changed ->
        for j = changed to m - 1 do
          if cur.(j) <> acts.(j) then begin
            let s = deviated.(deviators.(j)) in
            s.(cur.(j)) <- 0.0;
            s.(acts.(j)) <- 1.0;
            cur.(j) <- acts.(j)
          end
        done));
  (* One pair scanned, [!checks] deviations evaluated: a single batched
     flush keeps the per-pair tax to one domain-local update. *)
  Obs.add2 c_pairs 1 c_devs !checks;
  !result

(* Search over disjoint C (≤ k), T (≤ t) and joint pure deviations by
   C ∪ T for the first hit reported by [test]. The outer (C, T) pairs are
   scanned on the pool's domains; [Pool.find_first] returns the
   lowest-index hit, so the reported violation is the one the serial
   left-to-right scan would find, for any domain budget. *)
let search_deviations ~pool g prof ~k ~t test =
  Obs.incr c_searches;
  let n = Normal_form.n_players g in
  let dims = Normal_form.actions g in
  let pure_p = Mixed.pure_actions prof in
  let pairs = Array.of_list (coalition_traitor_pairs n ~k ~t) in
  Obs.span "robust.search"
    ~args:(fun () ->
      [ ("players", Obs.I n); ("k", Obs.I k); ("t", Obs.I t);
        ("pairs", Obs.I (Array.length pairs)) ])
    (fun () ->
      Bn_util.Pool.find_first pool
        (fun (coalition, traitors) ->
          let deviators = Array.of_list (coalition @ traitors) in
          scan_assignments g ~dims ~prof ~pure_p ~deviators (test ~coalition ~traitors))
        pairs)

(* Does the deviated profile give the coalition a blocking gain? Reports
   the first gaining member in coalition order (the canonical victim). *)
let blocking_gain variant ~eps base ~payoff_after coalition =
  match variant with
  | Strong ->
    List.find_map
      (fun i ->
        let after = payoff_after i in
        if after > base.(i) +. eps then Some (i, after) else None)
      coalition
  | Weak -> (
    match coalition with
    | [] -> None
    | first :: rest ->
      let after = payoff_after first in
      if
        after > base.(first) +. eps
        && List.for_all (fun i -> payoff_after i > base.(i) +. eps) rest
      then Some (first, after)
      else None)

let verdict_of = function Some v -> Fails v | None -> Holds

let resilience_violation ~variant ~eps ~pool g prof ~base ~k ~t =
  search_deviations ~pool g prof ~k ~t
    (fun ~coalition ~traitors ~payoff_after ~assignment ->
      Option.map
        (fun (victim, after) ->
          { coalition; traitors; deviation = assignment (); victim;
            before = base.(victim); after })
        (blocking_gain variant ~eps base ~payoff_after coalition))

let immunity_violation ~eps ~pool g prof ~base ~t =
  let n = Normal_form.n_players g in
  search_deviations ~pool g prof ~k:0 ~t
    (fun ~coalition:_ ~traitors ~payoff_after ~assignment ->
      let rec first_victim i =
        if i >= n then None
        else if List.mem i traitors then first_victim (i + 1)
        else
          let after = payoff_after i in
          if after < base.(i) -. eps then
            Some
              { coalition = []; traitors; deviation = assignment (); victim = i;
                before = base.(i); after }
          else first_victim (i + 1)
      in
      first_victim 0)

let check_resilience ?(variant = Strong) ?(eps = 1e-9) ?jobs g prof ~k =
  Obs.incr c_checks;
  Obs.timed sk_check_ns @@ fun () ->
  let pool = pool_of_jobs jobs in
  let base = baseline g prof in
  verdict_of (resilience_violation ~variant ~eps ~pool g prof ~base ~k ~t:0)

let check_immunity ?(eps = 1e-9) ?jobs g prof ~t =
  Obs.incr c_checks;
  Obs.timed sk_check_ns @@ fun () ->
  let pool = pool_of_jobs jobs in
  let base = baseline g prof in
  verdict_of (immunity_violation ~eps ~pool g prof ~base ~t)

(* (k,t)-robustness combines two guarantees (ADGH):
   - resilience side: no coalition C (|C| ≤ k) profits from a joint
     deviation, even with the help of up to t arbitrarily-behaving players
     T (quantified over joint deviations by C ∪ T);
   - immunity side: deviations by up to t players alone never hurt a
     non-deviator. The immunity condition concerns only the faulty set T —
     rational players follow the equilibrium, so outsiders need no
     protection from C; this is what makes (1,0)-robustness coincide
     exactly with Nash equilibrium.
   The pool and the baseline are built once and shared by both sides. *)
let check_robustness ?(variant = Strong) ?(eps = 1e-9) ?jobs g prof ~k ~t =
  Obs.incr c_checks;
  Obs.timed sk_check_ns @@ fun () ->
  let pool = pool_of_jobs jobs in
  let base = baseline g prof in
  match immunity_violation ~eps ~pool g prof ~base ~t with
  | Some v -> Fails v
  | None -> verdict_of (resilience_violation ~variant ~eps ~pool g prof ~base ~k ~t)

let is_k_resilient ?variant ?eps ?jobs g prof ~k =
  match check_resilience ?variant ?eps ?jobs g prof ~k with Holds -> true | Fails _ -> false

let is_t_immune ?eps ?jobs g prof ~t =
  match check_immunity ?eps ?jobs g prof ~t with Holds -> true | Fails _ -> false

let is_robust ?variant ?eps ?jobs g prof ~k ~t =
  match check_robustness ?variant ?eps ?jobs g prof ~k ~t with Holds -> true | Fails _ -> false

let max_resilience ?variant ?eps ?jobs g prof =
  let n = Normal_form.n_players g in
  let rec go k =
    if k >= n then n
    else if is_k_resilient ?variant ?eps ?jobs g prof ~k:(k + 1) then go (k + 1)
    else k
  in
  go 0

let max_immunity ?eps ?jobs g prof =
  let n = Normal_form.n_players g in
  let rec go t =
    if t >= n then n else if is_t_immune ?eps ?jobs g prof ~t:(t + 1) then go (t + 1) else t
  in
  go 0

let robust_pure_equilibria ?variant ?eps ?jobs g ~k ~t =
  (* One pool for the whole sweep: profiles are scanned in parallel, each
     per-profile check running serially inside its worker. The result list
     order (row-major) is preserved by [Pool.map_array]. *)
  let pool = pool_of_jobs jobs in
  let profs = Array.of_list (Normal_form.profiles g) in
  let robust =
    Bn_util.Pool.map_array pool
      (fun p -> is_robust ?variant ?eps g (Mixed.pure_profile g p) ~k ~t)
      profs
  in
  let acc = ref [] in
  Array.iteri (fun i p -> if robust.(i) then acc := p :: !acc) profs;
  List.rev !acc

let find_punishment ?(eps = 1e-9) ?jobs g ~target ~budget =
  let n = Normal_form.n_players g in
  if Array.length target <> n then invalid_arg "Robust.find_punishment: target arity";
  let pool = pool_of_jobs jobs in
  let escapes payoff_after =
    let rec go i = i < n && (payoff_after i >= target.(i) -. eps || go (i + 1)) in
    go 0
  in
  let qualifies rho =
    let prof = Mixed.pure_profile g rho in
    (* Every player strictly below target at the base profile and under
       deviations by any ≤ budget players (who may also be punished players
       trying to escape). *)
    (not (escapes (Mixed.expected_payoff g prof)))
    && Option.is_none
         (search_deviations ~pool:Bn_util.Pool.serial g prof ~k:budget ~t:0
            (fun ~coalition:_ ~traitors:_ ~payoff_after ~assignment:_ ->
              if escapes payoff_after then Some () else None))
  in
  (* The profile sweep shares the pool; [Pool.find_first] keeps the answer
     the first qualifying profile in row-major order, as the serial scan. *)
  let profs = Array.of_list (Normal_form.profiles g) in
  Bn_util.Pool.find_first pool (fun p -> if qualifies p then Some p else None) profs
