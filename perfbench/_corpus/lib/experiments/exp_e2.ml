(** E2 — §2 bargaining game: k-resilient for every k, yet not 1-immune.

    Also exhibits the (k+t)-punishment profile that the mediator
    characterization (E3) requires. *)

module B = Beyond_nash

let name = "E2"
let title = "bargaining game: resilience vs immunity of all-stay"

let run ?jobs:_ () =
  let tab =
    B.Tab.create ~title
      [ "n"; "Nash"; "max k (resilience)"; "1-immune"; "max t (immunity)"; "punishment profile" ]
  in
  List.iter
    (fun n ->
      let g = B.Games.bargaining n in
      let stay = B.Mixed.pure_profile g (Array.make n 0) in
      let punishment =
        match B.Robust.find_punishment g ~target:(Array.make n 2.0) ~budget:1 with
        | Some rho ->
          String.concat "" (List.map (fun a -> if a = 1 then "L" else "S") (Array.to_list rho))
        | None -> "none"
      in
      B.Tab.add_row tab
        [
          string_of_int n;
          string_of_bool (B.Nash.is_nash g stay);
          string_of_int (B.Robust.max_resilience g stay);
          string_of_bool (B.Robust.is_t_immune g stay ~t:1);
          string_of_int (B.Robust.max_immunity g stay);
          punishment;
        ])
    [ 3; 4; 5 ];
  B.Tab.print tab;
  let g = B.Games.bargaining 4 in
  let stay = B.Mixed.pure_profile g (Array.make 4 0) in
  (match B.Robust.check_immunity g stay ~t:1 with
  | B.Robust.Fails v ->
    B.Out.printf
      "immunity witness (n=4): player %s leaves; non-deviator %d falls %.0f -> %.0f\n\n"
      (String.concat "," (List.map string_of_int v.B.Robust.traitors))
      v.B.Robust.victim v.B.Robust.before v.B.Robust.after
  | B.Robust.Holds -> ())
