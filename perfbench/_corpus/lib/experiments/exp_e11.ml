(** E11 — §5: scrip systems (Kash–Friedman–Halpern).

    Efficiency as a function of the money supply (including the monetary
    crash once everyone sits at its threshold), the impact of the paper's
    two "standard irrational" behaviours — hoarders and altruists — and the
    empirical best-response structure of threshold strategies. *)

module B = Beyond_nash
module S = B.Scrip

let name = "E11"
let title = "scrip systems: efficiency, crashes, hoarders, altruists"

let run ?jobs:_ () =
  let n = 40 in
  let params = S.default_params ~n in
  let threshold = 5 in
  let tab =
    B.Tab.create ~title:"efficiency vs money supply (all Standard k=5)"
      [ "money/agent"; "efficiency"; "starved"; "no volunteer" ]
  in
  List.iter
    (fun m ->
      let rng = B.Prng.create 11 in
      let st = S.simulate rng params ~kinds:(Array.make n (S.Standard threshold)) ~money_per_agent:m in
      B.Tab.add_row tab
        [
          B.Tab.fmt_float m;
          B.Tab.fmt_float (S.efficiency params st);
          string_of_int st.S.starved;
          string_of_int st.S.unserved;
        ])
    [ 0.5; 1.0; 2.0; 3.0; 4.0; 4.5; 5.0; 6.0 ];
  B.Tab.print tab;
  B.Out.print_endline
    "shape check: efficiency rises with the money supply and crashes once money/agent reaches\n\
     the threshold (nobody volunteers) — the KFH monetary crash.\n";
  (* Hoarders and altruists. *)
  let tab2 =
    B.Tab.create ~title:"standard agents' average utility vs population mix (money/agent = 2)"
      [ "mix"; "avg utility (standard)"; "efficiency" ]
  in
  let run_mix label kinds =
    let rng = B.Prng.create 12 in
    let st = S.simulate rng params ~kinds ~money_per_agent:2.0 in
    let standard i = match kinds.(i) with S.Standard _ -> true | S.Hoarder | S.Altruist -> false in
    B.Tab.add_row tab2
      [
        label;
        B.Tab.fmt_float (S.avg_utility st ~who:standard);
        B.Tab.fmt_float (S.efficiency params st);
      ]
  in
  run_mix "40 standard" (Array.make n (S.Standard threshold));
  run_mix "34 standard + 6 altruists"
    (Array.init n (fun i -> if i < 6 then S.Altruist else S.Standard threshold));
  run_mix "34 standard + 6 hoarders"
    (Array.init n (fun i -> if i < 6 then S.Hoarder else S.Standard threshold));
  B.Tab.print tab2;
  B.Out.print_endline
    "shape check: altruists raise everyone else's welfare (free service, scrip untouched);\n\
     hoarders soak up scrip and leave standard agents starved more often.\n";
  (* Threshold best responses. *)
  let tab3 =
    B.Tab.create ~title:"empirical best response to a common threshold (money/agent = 2)"
      [ "others play k"; "best response k*"; "utility at k*" ]
  in
  let rng = B.Prng.create 13 in
  List.iter
    (fun k ->
      let bt, bu =
        S.best_threshold rng params ~others:k ~money_per_agent:2.0
          ~candidates:[ 1; 2; 3; 5; 8; 12; 20 ]
      in
      B.Tab.add_row tab3 [ string_of_int k; string_of_int bt; B.Tab.fmt_float bu ])
    [ 2; 5; 8; 12 ];
  B.Tab.print tab3;
  B.Out.print_endline
    "shape check: best responses are interior thresholds — the threshold-strategy equilibrium\n\
     structure KFH prove; hoarding (huge k) is a recognizable deviation, not a best reply.\n"
