module B = Beyond_nash
module F = B.Feasibility
module M = B.Mediated
module CT = B.Cheap_talk

(* {1 Feasibility: the nine bullets} *)

let classify = F.classify

let test_bullet1 () =
  (* n > 3k+3t: implementable with no assumptions. *)
  match classify ~n:7 ~k:1 ~t:1 F.no_assumptions with
  | F.Implementable { exact = true; running_time = F.Bounded; bullet = 1; _ } -> ()
  | v -> Alcotest.failf "expected bullet 1, got %s" (F.describe v)

let test_bullet2 () =
  (* n <= 3k+3t without punishment/utilities: impossible. *)
  match classify ~n:6 ~k:1 ~t:1 F.no_assumptions with
  | F.Impossible { bullet = 2; _ } -> ()
  | v -> Alcotest.failf "expected bullet 2, got %s" (F.describe v)

let test_bullet3 () =
  (* 2k+3t < n <= 3k+3t with punishment + utilities: finite expected. *)
  let a = { F.no_assumptions with F.utilities_known = true; punishment = true } in
  match classify ~n:6 ~k:1 ~t:1 a with
  | F.Implementable { exact = true; running_time = F.Finite_expected; bullet = 3; _ } -> ()
  | v -> Alcotest.failf "expected bullet 3, got %s" (F.describe v)

let test_bullet4 () =
  (* n <= 2k+3t: impossible even with punishment and utilities. *)
  let a = { F.no_assumptions with F.utilities_known = true; punishment = true } in
  match classify ~n:5 ~k:1 ~t:1 a with
  | F.Impossible { bullet = 4; _ } -> ()
  | v -> Alcotest.failf "expected bullet 4, got %s" (F.describe v)

let test_bullet5 () =
  (* 2k+2t < n <= 2k+3t with broadcast: eps-implementable. *)
  let a = { F.no_assumptions with F.broadcast = true } in
  match classify ~n:5 ~k:1 ~t:1 a with
  | F.Implementable { exact = false; running_time = F.Bounded_expected; bullet = 5; _ } -> ()
  | v -> Alcotest.failf "expected bullet 5, got %s" (F.describe v)

let test_bullet6 () =
  (* n <= 2k+2t: impossible even with broadcast. *)
  let a = { F.no_assumptions with F.broadcast = true } in
  match classify ~n:4 ~k:1 ~t:1 a with
  | F.Impossible { bullet = 6; _ } -> ()
  | v -> Alcotest.failf "expected bullet 6, got %s" (F.describe v)

let test_bullet7 () =
  (* k+3t < n with crypto: eps-implementable; time utility-dependent when
     n <= 2k+2t. *)
  let a = { F.no_assumptions with F.crypto = true } in
  (match classify ~n:4 ~k:2 ~t:0 a with
  | F.Implementable { exact = false; bullet = 7; running_time = F.Utility_dependent; _ } -> ()
  | v -> Alcotest.failf "expected bullet 7 utility-dependent, got %s" (F.describe v));
  match classify ~n:5 ~k:1 ~t:1 a with
  | F.Implementable { exact = false; bullet = 7; running_time = F.Bounded_expected; _ } -> ()
  | v -> Alcotest.failf "expected bullet 7 (above 2k+2t), got %s" (F.describe v)

let test_bullet8 () =
  (* n <= k+3t, crypto but no PKI: impossible. *)
  let a = { F.no_assumptions with F.crypto = true; punishment = true } in
  match classify ~n:4 ~k:1 ~t:1 a with
  | F.Impossible { bullet = 8; _ } -> ()
  | v -> Alcotest.failf "expected bullet 8, got %s" (F.describe v)

let test_bullet9 () =
  (* n > k+t with PKI: eps-implementable. *)
  let a = { F.no_assumptions with F.pki = true } in
  match classify ~n:3 ~k:1 ~t:1 a with
  | F.Implementable { exact = false; bullet = 9; _ } -> ()
  | v -> Alcotest.failf "expected bullet 9, got %s" (F.describe v)

let test_below_kt_impossible () =
  let a = F.all_assumptions in
  match classify ~n:2 ~k:1 ~t:1 a with
  | F.Impossible { bullet = 8; _ } -> ()
  | v -> Alcotest.failf "expected impossible below k+t, got %s" (F.describe v)

let test_classify_invalid () =
  Alcotest.check_raises "k = 0 rejected"
    (Invalid_argument "Feasibility.classify: need n >= 1, k >= 1, t >= 0") (fun () ->
      ignore (classify ~n:5 ~k:0 ~t:0 F.no_assumptions))

let feasibility_monotone_in_n =
  QCheck.Test.make ~count:100 ~name:"feasibility: larger n never flips implementable -> impossible"
    QCheck.(triple (int_range 2 12) (int_range 1 3) (int_range 0 3))
    (fun (n, k, t) ->
      let a = F.all_assumptions in
      let implementable n =
        match classify ~n ~k ~t a with F.Implementable _ -> true | F.Impossible _ -> false
      in
      (not (implementable n)) || implementable (n + 1))

(* {1 Exhaustiveness of the nine bullets (satellite: property test)} *)

let assumptions_gen =
  (* All 32 assumption combinations, uniformly. *)
  QCheck.Gen.map
    (fun bits ->
      {
        F.utilities_known = bits land 1 <> 0;
        punishment = bits land 2 <> 0;
        broadcast = bits land 4 <> 0;
        crypto = bits land 8 <> 0;
        pki = bits land 16 <> 0;
      })
    (QCheck.Gen.int_range 0 31)

let assumptions_arb =
  QCheck.make assumptions_gen
    ~print:(fun a ->
      Printf.sprintf "{utilities=%b; punishment=%b; broadcast=%b; crypto=%b; pki=%b}"
        a.F.utilities_known a.F.punishment a.F.broadcast a.F.crypto a.F.pki)

let bullet_of = function
  | F.Implementable { bullet; _ } | F.Impossible { bullet; _ } -> bullet

let classify_exhaustive =
  QCheck.Test.make ~count:500
    ~name:"feasibility: every (n,k,t,assumptions) maps to exactly one bullet, odd iff implementable"
    QCheck.(
      pair (triple (int_range 1 15) (int_range 1 3) (int_range 0 3)) assumptions_arb)
    (fun ((n, k, t), a) ->
      let v = classify ~n ~k ~t a in
      let v' = classify ~n ~k ~t a in
      let b = bullet_of v in
      (* total + deterministic, bullet in the paper's 1..9 range, and the
         paper's ordering: implementable bullets are the odd ones. *)
      v = v' && b >= 1 && b <= 9
      && (match v with F.Implementable _ -> b mod 2 = 1 | F.Impossible _ -> b mod 2 = 0))

let classify_monotone_in_assumptions =
  QCheck.Test.make ~count:300
    ~name:"feasibility: adding assumptions never flips implementable -> impossible"
    QCheck.(
      pair (triple (int_range 1 15) (int_range 1 3) (int_range 0 3))
        (pair assumptions_arb assumptions_arb))
    (fun ((n, k, t), (a, b)) ->
      let join =
        {
          F.utilities_known = a.F.utilities_known || b.F.utilities_known;
          punishment = a.F.punishment || b.F.punishment;
          broadcast = a.F.broadcast || b.F.broadcast;
          crypto = a.F.crypto || b.F.crypto;
          pki = a.F.pki || b.F.pki;
        }
      in
      let implementable a =
        match classify ~n ~k ~t a with F.Implementable _ -> true | F.Impossible _ -> false
      in
      (not (implementable a)) || implementable join)

let test_bullet_thresholds_tight () =
  (* Each regime boundary, off-by-one tight: one player above the
     threshold lands on the implementable bullet, the threshold itself on
     the matching impossibility bullet. *)
  let expect name a n k t want =
    let b = bullet_of (classify ~n ~k ~t a) in
    Alcotest.(check int) (Printf.sprintf "%s at n=%d k=%d t=%d" name n k t) want b
  in
  for k = 1 to 3 do
    for t = 0 to 3 do
      (* 3k+3t: bare model (bullets 1/2). *)
      expect "bullet 1" F.no_assumptions ((3 * k) + (3 * t) + 1) k t 1;
      expect "bullet 2" F.no_assumptions ((3 * k) + (3 * t)) k t 2;
      (* 2k+3t: punishment + known utilities (bullets 3/4). At t = 0 the
         threshold coincides with 2k+2t and the cascade reports the
         tighter bullet 6 instead. *)
      let pu = { F.no_assumptions with F.utilities_known = true; punishment = true } in
      expect "bullet 3" pu ((2 * k) + (3 * t) + 1) k t 3;
      expect "bullet 4/6" pu ((2 * k) + (3 * t)) k t (if t > 0 then 4 else 6);
      (* 2k+2t: broadcast (bullets 5/6). *)
      let bc = { F.no_assumptions with F.broadcast = true } in
      expect "bullet 5" bc ((2 * k) + (2 * t) + 1) k t 5;
      expect "bullet 6" bc ((2 * k) + (2 * t)) k t 6;
      (* k+3t: crypto (bullets 7/8). Bullet 8 is the blocker only while
         k+3t <= 2k+2t, i.e. t <= k; past that the cascade blames the
         tighter exact-impossibility bullet 4. *)
      let cr = { F.no_assumptions with F.crypto = true } in
      expect "bullet 7" cr (k + (3 * t) + 1) k t 7;
      if t > 0 then expect "bullet 8/4" cr (k + (3 * t)) k t (if t <= k then 8 else 4);
      (* k+t: pki reaches all the way down to n > k+t (bullet 9 — at t = 0
         that regime is inside bullet 7's n > k+3t); at the bound even
         every assumption together stays impossible. *)
      expect "bullet 9/7" { F.no_assumptions with F.pki = true } (k + t + 1) k t
        (if t > 0 then 9 else 7);
      expect "below k+t" F.all_assumptions (max 1 (k + t)) k t 8
    done
  done

(* {1 Async threshold (n > 4(k+t))} *)

let test_classify_async_boundaries () =
  let check n k t expected =
    Alcotest.(check bool)
      (Printf.sprintf "async verdict at n=%d k=%d t=%d" n k t)
      true
      (F.classify_async ~n ~k ~t = expected)
  in
  check 5 1 0 F.Async_implementable;
  check 4 1 0 F.Async_breaks_under_faults;
  check 3 1 0 F.Async_breaks_fault_free;
  check 9 1 1 F.Async_implementable;
  check 8 1 1 F.Async_breaks_under_faults;
  check 6 1 1 F.Async_breaks_fault_free;
  Alcotest.check_raises "k = 0 rejected"
    (Invalid_argument "Feasibility.classify_async: need n >= 1, k >= 1, t >= 0") (fun () ->
      ignore (F.classify_async ~n:5 ~k:0 ~t:0))

let async_needs_more_players_than_sync =
  QCheck.Test.make ~count:200
    ~name:"feasibility: async-implementable implies every sync bullet implementable"
    QCheck.(triple (int_range 1 20) (int_range 1 3) (int_range 0 3))
    (fun (n, k, t) ->
      F.classify_async ~n ~k ~t <> F.Async_implementable
      ||
      match classify ~n ~k ~t F.no_assumptions with
      | F.Implementable { bullet = 1; _ } -> true
      | _ -> false)

(* {1 Mediated games} *)

let med4 = B.Ba_game.mediator ~n:4

let test_honest_utilities () =
  let u = M.honest_utilities med4 in
  Array.iter (fun x -> Alcotest.(check (float 1e-9)) "all get 2" 2.0 x) u

let test_truthful_equilibrium () =
  Alcotest.(check bool) "truthful is equilibrium" true (M.is_truthful_equilibrium med4)

let test_resilience_of_mediated () =
  (* No coalition of soldiers can gain: payoffs are already maximal. *)
  Alcotest.(check bool) "2-resilient" true (M.check_resilience med4 ~k:2 = None)

let test_immunity_general_is_pivotal () =
  (* A deviating general can hurt everyone (misreporting flips the
     recommendation); immunity fails through the general... *)
  match M.check_immunity med4 ~t_bound:1 with
  | Some (deviators, _victim, _) ->
    Alcotest.(check (list int)) "the general is the pivotal deviator" [ 0 ] deviators
  | None -> Alcotest.fail "the general's misreport should hurt soldiers"

let test_outcome_for_types () =
  let d = M.outcome_for_types med4 [| 1; 0; 0; 0 |] in
  Alcotest.(check int) "deterministic recommendation" 1 (List.length (B.Dist.support d));
  match B.Dist.support d with
  | [ acts ] -> Alcotest.(check (array int)) "all attack" [| 1; 1; 1; 1 |] acts
  | _ -> Alcotest.fail "point mass expected"

let test_all_deviations_count () =
  (* general: 2 types, 2 actions -> 4 report maps x 16 act maps. *)
  Alcotest.(check int) "general deviations" 64 (List.length (M.all_deviations med4 ~player:0));
  (* soldier: 1 type, 2 actions -> 1 x 4. *)
  Alcotest.(check int) "soldier deviations" 4 (List.length (M.all_deviations med4 ~player:1))

(* {1 Cheap talk} *)

let test_generals_eig_implements_mediator () =
  List.iter
    (fun gt ->
      let o = CT.generals_eig ~n:4 ~t:1 ~general_type:gt () in
      Alcotest.(check (float 1e-9)) "TV distance 0" 0.0 (CT.tv_to_mediator ~n:4 ~general_type:gt o))
    [ 0; 1 ]

let test_generals_eig_bounded_rounds () =
  let o = CT.generals_eig ~n:4 ~t:1 ~general_type:1 () in
  Alcotest.(check int) "t+2 rounds" 3 o.CT.rounds

let test_generals_eig_with_corrupt_soldier () =
  let o = CT.generals_eig ~corrupted:[ 3 ] ~n:4 ~t:1 ~general_type:1 () in
  (* Honest players still match the mediator's distribution. *)
  Alcotest.(check (float 1e-9)) "TV 0 with corruption" 0.0
    (CT.tv_to_mediator ~n:4 ~general_type:1 o)

let test_naive_echo_fails () =
  let o = CT.generals_naive ~delivered:[| 0; 0; 1; 1 |] ~n:4 ~general_type:1 () in
  Alcotest.(check bool) "naive echo diverges from mediator" true
    (CT.tv_to_mediator ~n:4 ~general_type:1 o > 0.5)

let test_share_exchange_threshold () =
  let rng = B.Prng.create 31 in
  List.iter
    (fun (n, k, t) ->
      let corrupted = List.init t (fun i -> n - 1 - i) in
      let r = CT.share_exchange rng ~n ~k ~t ~secret:12345 ~corrupted in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d k=%d t=%d matches theory" n k t)
        (CT.share_exchange_succeeds_theoretically ~n ~k ~t)
        r.CT.succeeded)
    [ (8, 1, 2); (7, 1, 2); (6, 2, 1); (5, 2, 1); (5, 1, 1); (4, 1, 1); (4, 3, 0); (3, 2, 0) ]

let test_share_exchange_no_corruption () =
  let rng = B.Prng.create 32 in
  let r = CT.share_exchange rng ~n:4 ~k:1 ~t:0 ~secret:7 ~corrupted:[] in
  Alcotest.(check bool) "t=0 works with n > k" true r.CT.succeeded

(* Satellite: the exact decoding threshold n = k+3t+1, from both sides —
   at the bound every honest player reconstructs the secret even with t
   actively corrupted shares; one player short, the exchange rejects
   cleanly (reported failure, no bogus reconstruction) rather than
   decoding garbage. *)
let test_share_exchange_exact_boundary () =
  for k = 1 to 3 do
    for t = 0 to 3 do
      let at = k + (3 * t) + 1 in
      let corrupted = List.init t (fun i -> at - 1 - i) in
      let r = CT.share_exchange (B.Prng.create ((k * 17) + t)) ~n:at ~k ~t ~secret:4242 ~corrupted in
      Alcotest.(check int) "threshold reported" at r.CT.threshold_needed;
      Alcotest.(check bool)
        (Printf.sprintf "n=k+3t+1=%d succeeds (k=%d t=%d)" at k t)
        true r.CT.succeeded;
      Array.iteri
        (fun i v ->
          if not (List.mem i corrupted) then
            Alcotest.(check (option int))
              (Printf.sprintf "player %d reconstructs at the bound" i)
              (Some 4242) v)
        r.CT.reconstructions
    done
  done

let test_share_exchange_one_below_rejects_cleanly () =
  for k = 1 to 3 do
    for t = 0 to 3 do
      let below = k + (3 * t) in
      if below >= 2 then begin
        let corrupted = List.init (min t (below - 1)) (fun i -> below - 1 - i) in
        let r =
          CT.share_exchange (B.Prng.create ((k * 19) + t)) ~n:below ~k ~t ~secret:4242 ~corrupted
        in
        Alcotest.(check bool)
          (Printf.sprintf "n=k+3t=%d fails (k=%d t=%d)" below k t)
          false r.CT.succeeded;
        Array.iteri
          (fun i v ->
            if not (List.mem i corrupted) then
              Alcotest.(check (option int))
                (Printf.sprintf "player %d reports failure, not garbage" i)
                None v)
          r.CT.reconstructions
      end
    done
  done

let share_exchange_property =
  QCheck.Test.make ~count:40 ~name:"cheap talk: share exchange succeeds iff n > k+3t"
    QCheck.(triple (int_range 3 9) (int_range 1 2) (int_range 0 2))
    (fun (n, k, t) ->
      let rng = B.Prng.create ((n * 100) + (k * 10) + t) in
      let corrupted = List.init (min t (n - 1)) (fun i -> n - 1 - i) in
      let r = CT.share_exchange rng ~n ~k ~t ~secret:999 ~corrupted in
      r.CT.succeeded = CT.share_exchange_succeeds_theoretically ~n ~k ~t)

let suite =
  [
    Alcotest.test_case "bullet 1" `Quick test_bullet1;
    Alcotest.test_case "bullet 2" `Quick test_bullet2;
    Alcotest.test_case "bullet 3" `Quick test_bullet3;
    Alcotest.test_case "bullet 4" `Quick test_bullet4;
    Alcotest.test_case "bullet 5" `Quick test_bullet5;
    Alcotest.test_case "bullet 6" `Quick test_bullet6;
    Alcotest.test_case "bullet 7" `Quick test_bullet7;
    Alcotest.test_case "bullet 8" `Quick test_bullet8;
    Alcotest.test_case "bullet 9" `Quick test_bullet9;
    Alcotest.test_case "below k+t" `Quick test_below_kt_impossible;
    Alcotest.test_case "classify validation" `Quick test_classify_invalid;
    QCheck_alcotest.to_alcotest feasibility_monotone_in_n;
    QCheck_alcotest.to_alcotest classify_exhaustive;
    QCheck_alcotest.to_alcotest classify_monotone_in_assumptions;
    Alcotest.test_case "bullet thresholds off-by-one tight" `Quick test_bullet_thresholds_tight;
    Alcotest.test_case "classify_async boundaries" `Quick test_classify_async_boundaries;
    QCheck_alcotest.to_alcotest async_needs_more_players_than_sync;
    Alcotest.test_case "mediated: honest utilities" `Quick test_honest_utilities;
    Alcotest.test_case "mediated: truthful equilibrium" `Quick test_truthful_equilibrium;
    Alcotest.test_case "mediated: resilience" `Slow test_resilience_of_mediated;
    Alcotest.test_case "mediated: general pivotal" `Quick test_immunity_general_is_pivotal;
    Alcotest.test_case "mediated: outcome for types" `Quick test_outcome_for_types;
    Alcotest.test_case "mediated: deviation counts" `Quick test_all_deviations_count;
    Alcotest.test_case "cheap talk: EIG implements mediator" `Quick
      test_generals_eig_implements_mediator;
    Alcotest.test_case "cheap talk: bounded rounds" `Quick test_generals_eig_bounded_rounds;
    Alcotest.test_case "cheap talk: corrupt soldier" `Quick test_generals_eig_with_corrupt_soldier;
    Alcotest.test_case "cheap talk: naive echo fails" `Quick test_naive_echo_fails;
    Alcotest.test_case "cheap talk: share exchange thresholds" `Quick
      test_share_exchange_threshold;
    Alcotest.test_case "cheap talk: share exchange t=0" `Quick test_share_exchange_no_corruption;
    Alcotest.test_case "cheap talk: exact threshold n=k+3t+1" `Quick
      test_share_exchange_exact_boundary;
    Alcotest.test_case "cheap talk: one below threshold rejects cleanly" `Quick
      test_share_exchange_one_below_rejects_cleanly;
    QCheck_alcotest.to_alcotest share_exchange_property;
  ]
