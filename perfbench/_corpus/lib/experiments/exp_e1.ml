(** E1 — §2 coordination game: Nash but not 2-resilient.

    Regenerates the paper's first worked example as a table: for the
    n-player 0/1 game, the all-0 profile is a Nash equilibrium (and hence
    1-resilient), but any pair deviating to 1 profits, so it is not
    2-resilient for any n. *)

module B = Beyond_nash

let name = "E1"
let title = "coordination game (0/1): k-resilience of the all-0 profile"

let run ?(jobs = 1) () =
  let tab =
    B.Tab.create ~title
      [ "n"; "Nash"; "1-resilient"; "2-resilient"; "max k"; "pair deviation (witness)" ]
  in
  (* The coalition enumeration inside each robustness check runs on [jobs]
     domains; Pool.find_first keeps the reported witness serial-identical. *)
  List.iter
    (fun n ->
      let g = B.Games.coordination_01 n in
      let prof = B.Mixed.pure_profile g (Array.make n 0) in
      let witness =
        match B.Robust.check_resilience ~jobs g prof ~k:2 with
        | B.Robust.Holds -> "-"
        | B.Robust.Fails v ->
          Printf.sprintf "C={%s}: %.0f -> %.0f"
            (String.concat "," (List.map string_of_int v.B.Robust.coalition))
            v.B.Robust.before v.B.Robust.after
      in
      B.Tab.add_row tab
        [
          string_of_int n;
          string_of_bool (B.Nash.is_nash g prof);
          string_of_bool (B.Robust.is_k_resilient ~jobs g prof ~k:1);
          string_of_bool (B.Robust.is_k_resilient ~jobs g prof ~k:2);
          string_of_int (B.Robust.max_resilience ~jobs g prof);
          witness;
        ])
    [ 3; 4; 5; 6 ];
  B.Tab.print tab;
  (* Contrast: the "everyone plays 1 with a partner" payoff is not reachable
     as any pure Nash equilibrium of the game for n > 2. *)
  let g = B.Games.coordination_01 5 in
  let pure = B.Nash.pure_equilibria g in
  B.Out.printf "pure Nash equilibria of the n=5 game: %d (the paper's point: all-0 is one of them, yet a pair gains by deviating)\n\n"
    (List.length pure)
