(** E7 — Example 3.2: finitely repeated prisoner's dilemma with memory
    costs.

    The equilibrium region of (TfT, TfT) over (memory cost, horizon) in the
    paper's machine space, the closed-form threshold 2δ^N / Δstates, and
    the paper's headline claim: any positive memory cost admits a horizon
    beyond which tit-for-tat is an equilibrium. *)

module B = Beyond_nash
module F = B.Frpd

let name = "E7"
let title = "FRPD: when is (TfT, TfT) a computational equilibrium?"

let run ?jobs:_ () =
  let delta = 0.9 in
  let horizons = [ 5; 8; 10; 15; 20 ] in
  let costs = [ 0.005; 0.01; 0.02; 0.05; 0.1 ] in
  let tab =
    B.Tab.create
      ~title:(Printf.sprintf "%s (delta = %.2f; cell = equilibrium?)" title delta)
      ("memory cost \\ N" :: List.map string_of_int horizons)
  in
  List.iter
    (fun mu ->
      B.Tab.add_row tab
        (B.Tab.fmt_float mu
        :: List.map
             (fun n ->
               let spec = { F.stage = B.Repeated.pd_paper; horizon = n; delta; memory_cost = mu } in
               if F.is_equilibrium ~space:(F.paper_space ~horizon:n) spec B.Automaton.tit_for_tat
               then "eq"
               else "-")
             horizons))
    costs;
  B.Tab.print tab;
  let tab2 =
    B.Tab.create ~title:"threshold memory cost 2*delta^N / extra-states vs horizon"
      [ "N"; "threshold"; "best response to TfT at mu=0" ]
  in
  List.iter
    (fun n ->
      let spec = { F.stage = B.Repeated.pd_paper; horizon = n; delta; memory_cost = 0.0 } in
      let br, _ = F.best_response ~space:(F.paper_space ~horizon:n) spec B.Automaton.tit_for_tat in
      B.Tab.add_row tab2
        [ string_of_int n; B.Tab.fmt_float (F.tft_threshold_cost spec); br.B.Automaton.name ])
    horizons;
  B.Tab.print tab2;
  let tab3 =
    B.Tab.create ~title:"any positive cost works for long enough games (min horizon)"
      [ "memory cost"; "delta"; "min N with (TfT,TfT) equilibrium" ]
  in
  List.iter
    (fun (mu, d) ->
      let cell =
        match F.min_horizon_for_equilibrium ~memory_cost:mu ~delta:d () with
        | Some n -> string_of_int n
        | None -> "> 60"
      in
      B.Tab.add_row tab3 [ B.Tab.fmt_float mu; B.Tab.fmt_float d; cell ])
    [ (0.001, 0.6); (0.01, 0.9); (0.05, 0.9); (0.05, 0.8); (0.1, 0.95) ];
  B.Tab.print tab3;
  B.Out.print_endline
    "note: in the full machine space (with AllC), (TfT,TfT) is never exact under per-state\n\
     charges because AllC plays identically against TfT with one state fewer — the artifact\n\
     DESIGN.md documents; the paper's argument quantifies over the counting deviations only.\n"
