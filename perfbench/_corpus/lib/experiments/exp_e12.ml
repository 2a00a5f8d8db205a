(** E12 — §3: Axelrod-style FRPD tournament.

    "Tit-for-tat does exceedingly well in FRPD tournaments": round-robin
    over the classic field; reciprocators (TfT/Grim/Pavlov) dominate the
    top of the table while AllD sinks, and cooperation rates tell the
    story. Also the bounded-automaton cooperation point (Neyman): within
    machine spaces that cannot count rounds, mutual cooperation is stable. *)

module B = Beyond_nash
module T = B.Tournament
module A = B.Automaton

let name = "E12"
let title = "Axelrod tournament (classic field, 200 rounds)"

let run ?jobs:_ () =
  let entries = T.round_robin ~stage:B.Repeated.pd_classic ~rounds:200 T.default_field in
  let tab = B.Tab.create ~title [ "rank"; "automaton"; "states"; "score"; "cooperation rate" ] in
  List.iteri
    (fun i e ->
      B.Tab.add_row tab
        [
          string_of_int (i + 1);
          e.T.automaton.A.name;
          string_of_int (A.size e.T.automaton);
          B.Tab.fmt_float e.T.score;
          B.Tab.fmt_float e.T.cooperation;
        ])
    entries;
  B.Tab.print tab;
  (* Horizon sweep: the ranking's shape is stable. *)
  let tab2 = B.Tab.create ~title:"winner and TfT rank vs horizon" [ "rounds"; "winner"; "TfT rank" ] in
  List.iter
    (fun rounds ->
      let es = T.round_robin ~stage:B.Repeated.pd_classic ~rounds T.default_field in
      let tft_rank =
        let rec go i = function
          | [] -> -1
          | e :: rest -> if e.T.automaton.A.name = "TfT" then i else go (i + 1) rest
        in
        go 1 es
      in
      B.Tab.add_row tab2
        [ string_of_int rounds; (T.winner es).A.name; string_of_int tft_rank ])
    [ 10; 50; 100; 200; 500 ];
  B.Tab.print tab2;
  (* Noise: Axelrod's second insight — trembles hurt the unforgiving. *)
  let tabn =
    B.Tab.create ~title:"noisy tournament (100 rounds): rank of each automaton vs noise"
      ("automaton \\ noise" :: List.map string_of_float [ 0.0; 0.02; 0.1 ])
  in
  let rankings =
    List.map
      (fun noise ->
        let rng = B.Prng.create 121 in
        let es =
          if noise = 0.0 then T.round_robin ~stage:B.Repeated.pd_classic ~rounds:100 T.default_field
          else
            T.round_robin ~noise:(rng, noise) ~stage:B.Repeated.pd_classic ~rounds:100
              T.default_field
        in
        List.map (fun e -> e.T.automaton.A.name) es)
      [ 0.0; 0.02; 0.1 ]
  in
  List.iter
    (fun name ->
      let rank_in ranking =
        let rec go i = function
          | [] -> "-"
          | n :: rest -> if n = name then string_of_int i else go (i + 1) rest
        in
        go 1 ranking
      in
      B.Tab.add_row tabn (name :: List.map rank_in rankings))
    (List.map (fun a -> a.A.name) T.default_field);
  B.Tab.print tabn;
  (* Bounded automata cooperate (Neyman's point, via the E7 machinery):
     within the counting-free space at zero memory cost, Grim vs Grim and
     TfT vs TfT sustain full cooperation. *)
  let spec =
    { B.Frpd.stage = B.Repeated.pd_paper; horizon = 20; delta = 0.95; memory_cost = 0.0 }
  in
  let bounded_space = [ A.all_d; A.grim; A.tit_for_tat; A.pavlov ] in
  B.Out.printf
    "bounded-automaton space (no round counters), mu=0: (TfT,TfT) equilibrium = %b,\n\
     (Grim,Grim) equilibrium = %b — cooperation without memory charges, Neyman-style.\n\n"
    (B.Frpd.is_equilibrium ~space:bounded_space spec A.tit_for_tat)
    (B.Frpd.is_equilibrium ~space:bounded_space spec A.grim)
