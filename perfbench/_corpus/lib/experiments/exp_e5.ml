(** E5 — §2: cheap talk implements the Byzantine-agreement mediator.

    For every general type, the EIG-based cheap-talk protocol induces the
    mediator's action distribution exactly (TV distance 0) in bounded time
    with no knowledge of utilities — the n > 3k+3t bullet's shape. A naive
    echo protocol fails against an equivocating general. The
    share-exchange table traces the n > k+3t decoding threshold used by
    the crypto regimes. *)

module B = Beyond_nash
module CT = B.Cheap_talk
module M = B.Mediated

let name = "E5"
let title = "implementing the BA mediator with cheap talk"

let run ?(jobs = 1) () =
  let tab =
    B.Tab.create ~title
      [ "protocol"; "scenario"; "TV(mediator, cheap talk)"; "rounds"; "msgs" ]
  in
  List.iter
    (fun gt ->
      let o = CT.generals_eig ~n:4 ~t:1 ~general_type:gt () in
      B.Tab.add_row tab
        [
          "EIG";
          Printf.sprintf "honest, type=%d" gt;
          B.Tab.fmt_float (CT.tv_to_mediator ~n:4 ~general_type:gt o);
          string_of_int o.CT.rounds;
          string_of_int o.CT.messages;
        ])
    [ 0; 1 ];
  let corrupt = CT.generals_eig ~corrupted:[ 3 ] ~n:4 ~t:1 ~general_type:1 () in
  B.Tab.add_row tab
    [
      "EIG";
      "corrupt soldier 3";
      B.Tab.fmt_float (CT.tv_to_mediator ~n:4 ~general_type:1 corrupt);
      string_of_int corrupt.CT.rounds;
      string_of_int corrupt.CT.messages;
    ];
  let naive_ok = CT.generals_naive ~n:4 ~general_type:1 () in
  B.Tab.add_row tab
    [
      "naive echo";
      "honest";
      B.Tab.fmt_float (CT.tv_to_mediator ~n:4 ~general_type:1 naive_ok);
      string_of_int naive_ok.CT.rounds;
      string_of_int naive_ok.CT.messages;
    ];
  let naive_bad = CT.generals_naive ~delivered:[| 0; 0; 1; 1 |] ~n:4 ~general_type:1 () in
  B.Tab.add_row tab
    [
      "naive echo";
      "equivocating general  <-- diverges";
      B.Tab.fmt_float (CT.tv_to_mediator ~n:4 ~general_type:1 naive_bad);
      string_of_int naive_bad.CT.rounds;
      string_of_int naive_bad.CT.messages;
    ];
  (* Fault sweep: the cheap-talk implementation must induce the mediator's
     distribution exactly (TV = 0 over surviving players) under every
     <=t crash schedule, not just the hand-picked scenarios above. *)
  let ct_sweep =
    B.Explore.explore
      ~pool:(B.Pool.create ~domains:jobs ())
      ~seed:42 ~trials:40
      ~gen:(fun rng ->
        B.Faults.random_schedule rng (B.Faults.crash_only ~n:4 ~rounds:2 ~max_crashes:1))
      {
        B.Explore.run =
          (fun schedule ->
            CT.generals_eig ~faults:(B.Faults.plan schedule) ~n:4 ~t:1 ~general_type:1 ());
        invariants =
          [ ("tv = 0", fun _ o -> CT.tv_to_mediator ~n:4 ~general_type:1 o = 0.0) ];
      }
  in
  B.Tab.add_row tab
    [
      "EIG";
      "fault sweep: 40 crash schedules, <=t crashes";
      Printf.sprintf "0 in all %d runs: %b" ct_sweep.B.Explore.trials
        (ct_sweep.B.Explore.violations = []);
      "";
      "";
    ];
  B.Tab.print tab;
  (* Mediated-game side: honest utilities and robustness. *)
  let med = B.Ba_game.mediator ~n:4 in
  let u = M.honest_utilities med in
  B.Out.printf
    "mediated game (n=4): honest utilities = %s; truthful equilibrium = %b; 2-resilient = %b\n\n"
    (String.concat ", " (List.map B.Tab.fmt_float (Array.to_list u)))
    (M.is_truthful_equilibrium med)
    (M.check_resilience med ~k:2 = None);
  (* Share-exchange threshold: the decoding bound behind the crypto regimes. *)
  let tab2 =
    B.Tab.create ~title:"robust secret reconstruction: success iff n > k+3t"
      [ "n"; "k"; "t"; "n > k+3t (theory)"; "all honest reconstruct (measured)" ]
  in
  let rng = B.Prng.create 99 in
  let pool = B.Pool.create ~domains:jobs () in
  (* Row i draws from the i-th split stream, so the measured column is the
     same whether the (n,k,t) grid is swept serially or in parallel. *)
  let grid =
    [ (8, 1, 2); (7, 1, 2); (6, 1, 1); (5, 1, 1); (4, 1, 1); (6, 2, 1); (5, 2, 1); (4, 3, 0); (3, 2, 0) ]
  in
  List.iter (B.Tab.add_row tab2)
    (B.Pool.map pool
       (fun (i, (n, k, t)) ->
         let corrupted = List.init t (fun j -> n - 1 - j) in
         let r = CT.share_exchange (B.Prng.split rng i) ~n ~k ~t ~secret:271828 ~corrupted in
         [
           string_of_int n;
           string_of_int k;
           string_of_int t;
           string_of_bool (CT.share_exchange_succeeds_theoretically ~n ~k ~t);
           string_of_bool r.CT.succeeded;
         ])
       (List.mapi (fun i x -> (i, x)) grid));
  B.Tab.print tab2
