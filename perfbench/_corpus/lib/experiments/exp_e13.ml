(** E13 (extension) — the value of a mediator: correlated equilibria beyond
    the Nash hull.

    §2's mediators are correlation devices. In chicken, the welfare-optimal
    correlated equilibrium strictly beats every Nash equilibrium — the
    quantitative reason implementing mediators by cheap talk (E5) is worth
    the trouble. *)

module B = Beyond_nash

let name = "E13"
let title = "mediator value: correlated equilibrium vs Nash (chicken)"

let run ?(jobs = 1) () =
  let g = B.Games.chicken in
  let tab = B.Tab.create ~title [ "solution"; "distribution"; "welfare (u1+u2)" ] in
  let show_dist d =
    String.concat " "
      (List.map
         (fun (s, p) ->
           Printf.sprintf "%s%s:%.2f"
             (String.sub (B.Normal_form.action_name g 0 s.(0)) 0 1)
             (String.sub (B.Normal_form.action_name g 1 s.(1)) 0 1)
             p)
         (B.Dist.to_list d))
  in
  List.iter
    (fun prof ->
      let welfare =
        B.Mixed.expected_payoff g prof 0 +. B.Mixed.expected_payoff g prof 1
      in
      B.Tab.add_row tab
        [ "Nash"; show_dist (B.Correlated.of_mixed g prof); B.Tab.fmt_float welfare ])
    (B.Nash.support_enumeration_2p g);
  (match B.Correlated.max_welfare g with
  | Some (d, welfare) ->
    B.Tab.add_row tab [ "correlated (max welfare)"; show_dist d; B.Tab.fmt_float welfare ];
    assert (B.Correlated.is_correlated_equilibrium g d)
  | None -> B.Tab.add_row tab [ "correlated"; "LP failed"; "-" ]);
  (match B.Correlated.max_player g ~player:0 with
  | Some (d, v) ->
    B.Tab.add_row tab
      [ "correlated (max player 1)"; show_dist d; Printf.sprintf "u1 = %s" (B.Tab.fmt_float v) ]
  | None -> ());
  B.Tab.print tab;
  (* Sunspots: what two players CAN do with public coins alone. *)
  let sunspot_w = B.Sunspot.best_sunspot_welfare g in
  let gap = B.Sunspot.mediator_gap g in
  B.Out.printf
    "public randomness (commit-reveal sunspots, implementable at n=2): best welfare %s;\n\
     private-mediation gap = %s — exactly what the paper's thresholds say two players\n\
     cannot get by bare cheap talk (n = 2 <= 2k+2t for (k,t) = (1,0)).\n\n"
    (B.Tab.fmt_float sunspot_w) (B.Tab.fmt_float gap);
  let fair =
    B.Sunspot.make
      (List.filteri (fun i _ -> i < 2)
         (List.map (fun p -> (0.5, p)) (B.Nash.support_enumeration_2p g)))
  in
  let rng = B.Prng.create 13 in
  let acts, payoffs = B.Sunspot.sample_and_play rng g fair in
  B.Out.printf
    "sample sunspot run (50/50 over the two pure equilibria): played (%s,%s), payoffs (%s,%s)\n\n"
    (B.Normal_form.action_name g 0 acts.(0))
    (B.Normal_form.action_name g 1 acts.(1))
    (B.Tab.fmt_float payoffs.(0)) (B.Tab.fmt_float payoffs.(1));
  (* Monte Carlo over the sunspot: empirical play frequencies and mean
     welfare. Trial i draws from the i-th split stream and writes slot i,
     so the table is bit-identical at any [jobs]. *)
  let trials = 20_000 in
  let pool = B.Pool.create ~domains:jobs () in
  let played = Array.make trials [||] and welfare = Array.make trials 0.0 in
  B.Pool.iter_grid pool
    (fun i ->
      let a, pay = B.Sunspot.sample_and_play (B.Prng.split rng i) g fair in
      played.(i) <- a;
      welfare.(i) <- pay.(0) +. pay.(1))
    (Array.init trials Fun.id);
  let mc = B.Tab.create ~title:"sunspot Monte Carlo (20k trials)" [ "outcome"; "frequency" ] in
  List.iter
    (fun eq ->
      let hits = Array.fold_left (fun acc a -> if a = eq then acc + 1 else acc) 0 played in
      B.Tab.add_row mc
        [
          Printf.sprintf "(%s,%s)"
            (B.Normal_form.action_name g 0 eq.(0))
            (B.Normal_form.action_name g 1 eq.(1));
          B.Tab.fmt_float (float_of_int hits /. float_of_int trials);
        ])
    (List.sort_uniq compare (Array.to_list played));
  B.Tab.add_row mc
    [ "mean welfare"; B.Tab.fmt_float (Array.fold_left ( +. ) 0.0 welfare /. float_of_int trials) ];
  B.Tab.print mc;
  B.Out.print_endline
    "shape check: the welfare-maximizing correlated equilibrium exceeds every Nash\n\
     equilibrium's welfare — the payoff a mediator (or its cheap-talk implementation)\n\
     unlocks.\n"
