(* solve: one op is what [main.exe solve] does for one bimatrix game
   typed as text — parse, pure equilibria, support enumeration, the
   max-welfare correlated equilibrium, rationalizability — under a
   per-op deadline, followed by a check of the answers against each
   other. *)

open Harness
module B = Beyond_nash

let deadline_s = 1.0

(* The games are a fixed pool: game [i] is [sizes.(i mod 5)] square with
   integer payoffs 0–9 drawn from [Prng.split (Prng.create pool_seed) i]. The run seed
   only orders the pool, so every run meets the same games and the same
   failing ones (see NOTES.md). *)
let pool_seed = 2008
let pool_size = 40
let sizes = [| 2; 3; 4; 5; 6 |]
let size i = sizes.(i mod Array.length sizes)

let spec i =
  let rng = B.Prng.split (B.Prng.create pool_seed) i in
  let n = size i in
  let cell () =
    let a = B.Prng.int rng 10 in
    Printf.sprintf "%d,%d" a (B.Prng.int rng 10)
  in
  String.concat " | " (List.init n (fun _ -> String.concat " " (List.init n (fun _ -> cell ()))))

let welfare g p = Array.fold_left ( +. ) 0. (B.Mixed.expected_payoffs g p)
let eps = 1e-6

(* The answers must agree with each other: every listed equilibrium is
   Nash; the correlated equilibrium is one and is worth at least every
   Nash equilibrium (each is a correlated equilibrium); its stated
   welfare is its expected total payoff; pure equilibria survive
   rationalizability. *)
let check g ~pure ~eqs ~ce ~rat =
  let pure_ok = List.for_all (B.Nash.is_pure_nash g) pure in
  match ce with
  | None -> fail "none_on_feasible" "max_welfare returned None on a feasible LP"
  | Some _ when eqs = [] -> fail "check" "no equilibrium found"
  | Some _ when not (pure_ok && List.for_all (B.Nash.is_nash g) eqs) -> fail "check" "a listed profile is not Nash"
  | Some (d, w) ->
    let realised = B.Dist.expect (fun p -> Array.fold_left ( +. ) 0. (B.Normal_form.payoff_vector g p)) d in
    if not (B.Correlated.is_correlated_equilibrium g d) then fail "check" "not a correlated equilibrium"
    else if not (Float.abs (realised -. w) <= eps) then fail "check" "welfare %g but the distribution gives %g" w realised
    else if List.exists (fun p -> welfare g p > w +. eps) eqs then fail "check" "a Nash equilibrium beats the max welfare"
    else if not (List.for_all (fun p -> List.mem p.(0) rat.(0) && List.mem p.(1) rat.(1)) pure) then
      fail "check" "a pure equilibrium is not rationalizable"
    else Pass

(* The user-visible rendering, as [main.exe solve] prints it. *)
let render g pure eqs ce rat =
  let b = Buffer.create 512 in
  let f = Format.formatter_of_buffer b in
  Format.fprintf f "game:@.%a@." B.Normal_form.pp g;
  List.iter (fun p -> Format.fprintf f "pure Nash equilibrium: (row %d, col %d)@." p.(0) p.(1)) pure;
  List.iter (fun p -> Format.fprintf f "equilibrium: %a@." B.Mixed.pp_profile p) eqs;
  Option.iter (fun (_, w) -> Format.fprintf f "max-welfare correlated equilibrium value: %.4f@." w) ce;
  Format.fprintf f "rationalizable actions: rows {%s}, cols {%s}@."
    (String.concat "," (List.map string_of_int rat.(0)))
    (String.concat "," (List.map string_of_int rat.(1)));
  Buffer.length b

let op ?(probe = off) ?(deadline = deadline_s) text () =
  let stage = ref "parse" in
  let at name f =
    stage := name;
    probe.call name f
  in
  let run () =
    let g = B.Parse.bimatrix text in
    let pure = at "nash.pure_equilibria" (fun () -> B.Nash.pure_equilibria g) in
    let eqs = at "nash.support_enumeration_2p" (fun () -> B.Nash.support_enumeration_2p g) in
    let ce = at "correlated.max_welfare" (fun () -> B.Correlated.max_welfare g) in
    let rat = at "rationalizable.rationalizable" (fun () -> B.Rationalizable.rationalizable g) in
    ignore (render g pure eqs ce rat);
    (g, pure, eqs, ce, rat)
  in
  match with_deadline deadline run with
  | None -> fail "deadline" "%.1f s deadline missed in %s" deadline !stage
  | Some (g, pure, eqs, ce, rat) -> check g ~pure ~eqs ~ce ~rat

(* (label, game text) in the order the seed gives. *)
type inputs = (string * string) array

let label i = Printf.sprintf "game %d (%dx%d)" i (size i) (size i)

(* One pass over the games that pass, with the reference; the failing
   games add their deadlines (about 5 s) to the first pass only. *)
let pass_s = 0.5
let known_failures = List.map (fun (i, o) -> (label i, o)) Recorded.solve_known_failures

let load ~seed =
  let order = Array.init pool_size Fun.id in
  B.Prng.shuffle (B.Prng.create seed) order;
  Array.map (fun i -> (label i, spec i)) order

let pass probe games = Array.map (fun (label, text) -> (label, op ~probe text)) games

(* Warm-up: two untimed passes over the games not known to fail; those
   are first run, and counted, in the timed loop. *)
let warm_up games =
  let known (label, _) = List.mem_assoc label known_failures in
  let games = Array.of_list (List.filter (fun g -> not (known g)) (Array.to_list games)) in
  run_passes ~reference:Speed_ref.reference ~passes:2 (pass off games)

let layers find (s : summary) =
  let per_op x = x /. float s.attempted in
  let ms name = match find name with Some a -> per_op a.time_s *. 1e3 | None -> 0. in
  let calls = match find "correlated.max_welfare" with Some a -> float a.calls | None -> 0. in
  let failed p =
    float (List.length (List.filter (fun smp -> match smp.outcome with Fail f -> p f.reason f.detail | Pass -> false) s.failures))
  in
  let deadline = failed (fun r d -> r = "deadline" && String.ends_with ~suffix:"correlated.max_welfare" d) in
  let none = failed (fun r _ -> r = "none_on_feasible") in
  let counter name = per_op (float (Bn_obs.Obs.value (Bn_obs.Obs.counter name))) in
  [
    ("nash.pure_equilibria_ms", ms "nash.pure_equilibria");
    ("nash.support_enumeration_2p_ms", ms "nash.support_enumeration_2p");
    ("rationalizable.rationalizable_ms", ms "rationalizable.rationalizable");
    ("mixed.support_profiles", counter "mixed.support_profiles");
    ("mixed.expected_payoffs", counter "mixed.expected_payoffs");
    ("correlated.max_welfare_ms", ms "correlated.max_welfare");
    ("correlated.max_welfare_calls", calls);
    ("correlated.max_welfare_deadline", deadline);
    ("correlated.max_welfare_none", none);
    (* Every op that passed called max_welfare and got a checked answer. *)
    ("correlated.max_welfare_ok_ratio", if calls = 0. then 0. else float s.passed /. calls);
  ]
