(* robust: one op is a (k,t)-robustness analysis of one n-player game —
   its pure equilibria, the resilience and immunity of each, and the
   (k,t)-robust pure equilibria — checked against the paper's
   definitions (§2). *)

open Harness
module B = Beyond_nash

type family = Coordination | Bargaining | Random
type game = { g : B.Normal_form.t; n : int; k : int; t : int; family : family }

(* The pool is fixed: the paper's two n-player families for n = 5..8,
   where the coalition search runs to the end, and [random_games] i.i.d.
   games (2 or 3 actions per player, integer payoffs 0–9), where it
   exits at the first violation. k ∈ {1,2} and t ∈ {0,1} are drawn per
   game from the pool seed. The run seed only orders the pool. The mixed
   action counts spread the random games' op times from 0.1 to 90 ms,
   so the median and the tail fall where op times are dense. *)
let pool_seed = 2006
let random_games = 120
let players = [| 5; 6; 7; 8 |]

(* [create] evaluates the payoff function once per profile, in
   row-major order, so the draws are a function of the seed alone. *)
let random_game rng n =
  let actions = Array.init n (fun _ -> 2 + B.Prng.int rng 2) in
  B.Normal_form.create ~actions (fun _ -> Array.init n (fun _ -> float (B.Prng.int rng 10)))

let pool () =
  let root = B.Prng.create pool_seed in
  let families =
    List.concat_map
      (fun n -> [ (Coordination, n, B.Games.coordination_01 n); (Bargaining, n, B.Games.bargaining n) ])
      (Array.to_list players)
  in
  let randoms =
    List.init random_games (fun i ->
        let n = players.(i mod Array.length players) in
        (Random, n, random_game (B.Prng.split root (1000 + i)) n))
  in
  List.mapi
    (fun i (family, n, g) ->
      let rng = B.Prng.split root i in
      let k = 1 + B.Prng.int rng 2 in
      { g; n; k; t = B.Prng.int rng 2; family })
    (families @ randoms)
  |> Array.of_list

let label i x =
  let fam = match x.family with Coordination -> "coordination_01" | Bargaining -> "bargaining" | Random -> "random" in
  Printf.sprintf "game %d (%s n=%d k=%d t=%d)" i fam x.n x.k x.t

(* Answers that must agree under the definitions: Nash is 1-resilience;
   a (k,t)-robust profile is Nash, k-resilient and t-immune; with t = 0
   robustness is exactly k-resilience; and the two families have the
   paper's known answers at the all-0 profile. *)
let check x ~pure ~res ~imm ~robust =
  let table = List.combine pure (List.combine res imm) in
  let stats p = List.assoc p table in
  let zero = List.assoc_opt (Array.make x.n 0) table in
  if List.exists (fun r -> r < 1) res then fail "check" "a pure equilibrium is not 1-resilient"
  else if not (List.for_all (fun p -> List.mem p pure) robust) then fail "check" "a (k,t)-robust profile is not Nash"
  else if List.exists (fun p -> let r, i = stats p in r < x.k || i < x.t) robust then
    fail "check" "a (%d,%d)-robust profile is not %d-resilient and %d-immune" x.k x.t x.k x.t
  else if x.t = 0 && List.exists2 (fun p r -> r >= x.k <> List.mem p robust) pure res then
    fail "check" "(%d,0)-robustness differs from %d-resilience" x.k x.k
  else if x.family = Coordination && (match zero with Some (1, _) -> false | _ -> true) then
    fail "check" "all-0 is not a Nash equilibrium that fails 2-resilience"
  else if x.family = Bargaining && zero <> Some (x.n, 0) then
    fail "check" "all-stay is not n-resilient and 0-immune"
  else Pass

(* Each equilibrium's analysis is a [step]: one op of the paper's
   families runs for seconds. *)
let op ?(probe = off) x () =
  let prof p = B.Mixed.pure_profile x.g p in
  let each f =
    List.map (fun p ->
        let r = f x.g (prof p) in
        step ();
        r)
  in
  let pure = probe.call "nash.pure_equilibria" (fun () -> B.Nash.pure_equilibria x.g) in
  let res = probe.call "robust.max_resilience" (fun () -> each (fun g p -> B.Robust.max_resilience g p) pure) in
  let imm = probe.call "robust.max_immunity" (fun () -> each (fun g p -> B.Robust.max_immunity g p) pure) in
  let robust =
    probe.call "robust.robust_pure_equilibria" (fun () -> B.Robust.robust_pure_equilibria x.g ~k:x.k ~t:x.t)
  in
  check x ~pure ~res ~imm ~robust

let pass_s = 3.7

let known_failures = []

type inputs = (string * game) array

let load ~seed =
  let games = pool () in
  let order = Array.init (Array.length games) Fun.id in
  B.Prng.shuffle (B.Prng.create seed) order;
  Array.map (fun i -> (label i games.(i), games.(i))) order

let pass probe (games : inputs) = Array.map (fun (l, x) -> (l, op ~probe x)) games

(* Warm-up: one untimed pass. *)
let warm_up games = run_passes ~reference:Speed_ref.reference ~passes:1 (pass off games)

let layers find (s : summary) =
  let per_op x = x /. float s.attempted in
  let get name = match find name with Some a -> (per_op a.time_s *. 1e3, per_op a.words /. 1e6) | None -> (0., 0.) in
  let counter name = per_op (float (Bn_obs.Obs.value (Bn_obs.Obs.counter name))) in
  List.concat_map
    (fun name ->
      let ms, mw = get name in
      [ (name ^ "_ms", ms); (name ^ "_alloc_mw", mw) ])
    [ "robust.max_resilience"; "robust.max_immunity"; "robust.robust_pure_equilibria" ]
  @ [
      ("nash.pure_equilibria_ms", fst (get "nash.pure_equilibria"));
      ("robust.deviation_checks", counter "robust.deviation_checks");
      ("robust.pairs_scanned", counter "robust.pairs_scanned");
    ]
