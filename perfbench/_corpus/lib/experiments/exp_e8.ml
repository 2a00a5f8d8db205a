(** E8 — Example 3.3: computational roshambo has no Nash equilibrium.

    Prints the machine-game payoff matrix, the full nonexistence
    certificate (a profitable deviation for every machine profile), and the
    classical contrast (uniform mixed equilibrium exists when computation
    is free). *)

module B = Beyond_nash
module MG = B.Machine_game

let name = "E8"
let title = "computational roshambo: nonexistence of equilibrium"

let run ?jobs:_ () =
  let g = B.Comp_roshambo.game () in
  let nf = MG.to_normal_form g in
  let names = Array.init 4 (fun m -> B.Normal_form.action_name nf 0 m) in
  let tab =
    B.Tab.create ~title:"machine game payoffs (row player utility = payoff - complexity)"
      ("row \\ col" :: Array.to_list names)
  in
  for i = 0 to 3 do
    B.Tab.add_row tab
      (names.(i)
      :: List.init 4 (fun j -> B.Tab.fmt_float (B.Normal_form.payoff nf [| i; j |] 0)))
  done;
  B.Tab.print tab;
  (match B.Comp_roshambo.certificate g with
  | None -> B.Out.print_endline "UNEXPECTED: an equilibrium exists"
  | Some cert ->
    let tab2 =
      B.Tab.create ~title:"nonexistence certificate: every profile admits a profitable switch"
        [ "profile (row,col)"; "deviator"; "switch to"; "gain" ]
    in
    List.iter
      (fun (choice, player, machine) ->
        let before = MG.expected_utility g ~choice ~player in
        let alt = Array.copy choice in
        alt.(player) <- machine;
        let after = MG.expected_utility g ~choice:alt ~player in
        B.Tab.add_row tab2
          [
            Printf.sprintf "(%s, %s)" names.(choice.(0)) names.(choice.(1));
            (if player = 0 then "row" else "col");
            names.(machine);
            B.Tab.fmt_float (after -. before);
          ])
      cert;
    B.Tab.print tab2);
  let with_extras = B.Comp_roshambo.game ~extra_randomizers:true () in
  B.Out.printf "with biased randomizers added: equilibrium exists = %b (still none)\n"
    (B.Comp_roshambo.has_equilibrium with_extras);
  let classical = B.Comp_roshambo.classical_equilibria () in
  (match classical with
  | [ p ] ->
    B.Out.printf
      "classical roshambo (free computation): unique Nash equilibrium, row mix = [%s]\n\n"
      (String.concat "; " (List.map B.Tab.fmt_float (Array.to_list p.(0))))
  | l -> B.Out.printf "classical roshambo: %d equilibria\n\n" (List.length l))
