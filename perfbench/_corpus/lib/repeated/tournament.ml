type entry = {
  automaton : Automaton.t;
  score : float;
  cooperation : float;
}

let default_field =
  [
    Automaton.all_c;
    Automaton.all_d;
    Automaton.grim;
    Automaton.tit_for_tat;
    Automaton.pavlov;
    Automaton.alternator;
  ]

let round_robin ?(delta = 1.0) ?(include_self_play = true) ?noise ~stage ~rounds field =
  let arr = Array.of_list field in
  let n = Array.length arr in
  let scores = Array.make n 0.0 in
  let coop = Array.make n [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i < j || (i = j && include_self_play) then begin
        let result =
          match noise with
          | None -> Repeated.play ~delta stage ~rounds arr.(i) arr.(j)
          | Some (rng, p) -> Repeated.noisy_play rng ~noise:p ~delta stage ~rounds arr.(i) arr.(j)
        in
        let p1, p2 = result.Repeated.total in
        scores.(i) <- scores.(i) +. p1;
        scores.(j) <- scores.(j) +. p2;
        let rate = Repeated.cooperation_rate result in
        coop.(i) <- rate :: coop.(i);
        coop.(j) <- rate :: coop.(j)
      end
    done
  done;
  let entries =
    List.init n (fun i ->
        { automaton = arr.(i); score = scores.(i); cooperation = Bn_util.Stats.mean coop.(i) })
  in
  List.sort (fun a b -> compare b.score a.score) entries

let winner = function
  | [] -> invalid_arg "Tournament.winner: empty tournament"
  | e :: _ -> e.automaton
