(** E3 — §2: the nine-regime mediator-implementation characterization.

    Regenerates the paper's bullet list as (i) a feasibility matrix over n
    for (k,t) = (1,1) under increasingly strong assumption sets, and (ii)
    one witness row per bullet. *)

module B = Beyond_nash
module F = B.Feasibility

let name = "E3"
let title = "ADGH characterization: when can cheap talk implement a mediator?"

let assumption_sets =
  [
    ("bare", F.no_assumptions);
    ("util+punish", { F.no_assumptions with F.utilities_known = true; punishment = true });
    ("broadcast", { F.no_assumptions with F.broadcast = true });
    ("crypto", { F.no_assumptions with F.crypto = true });
    ("PKI", { F.no_assumptions with F.pki = true });
  ]

let run ?(jobs = 1) () =
  let pool = B.Pool.create ~domains:jobs () in
  let tab = B.Tab.create ~title ("n \\ assumptions (k=1,t=1)" :: List.map fst assumption_sets) in
  (* One grid row per n, classified in parallel; rows are added in sweep
     order so the table never depends on domain scheduling. *)
  List.iter (B.Tab.add_row tab)
    (B.Pool.map pool
       (fun n ->
         string_of_int n
         :: List.map (fun (_, a) -> F.describe (F.classify ~n ~k:1 ~t:1 a)) assumption_sets)
       [ 3; 4; 5; 6; 7; 8 ]);
  B.Tab.print tab;
  let witness = B.Tab.create ~title:"bullet-by-bullet witnesses" [ "bullet"; "statement"; "witness (n,k,t)"; "verdict" ] in
  let rows =
    [
      (1, (7, 1, 1), F.no_assumptions);
      (2, (6, 1, 1), F.no_assumptions);
      (3, (6, 1, 1), { F.no_assumptions with F.utilities_known = true; punishment = true });
      (4, (5, 1, 1), { F.no_assumptions with F.utilities_known = true; punishment = true });
      (5, (5, 1, 1), { F.no_assumptions with F.broadcast = true });
      (6, (4, 1, 1), { F.no_assumptions with F.broadcast = true });
      (7, (5, 1, 1), { F.no_assumptions with F.crypto = true });
      (8, (4, 1, 1), { F.no_assumptions with F.crypto = true; punishment = true });
      (9, (3, 1, 1), { F.no_assumptions with F.pki = true });
    ]
  in
  List.iter
    (fun (bullet, (n, k, t), a) ->
      B.Tab.add_row witness
        [
          string_of_int bullet;
          F.bullet_text bullet;
          Printf.sprintf "(%d,%d,%d)" n k t;
          F.describe (F.classify ~n ~k ~t a);
        ])
    rows;
  B.Tab.print witness
