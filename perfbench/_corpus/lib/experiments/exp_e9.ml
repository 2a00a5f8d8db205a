(** E9 — §4 Figures 1–3: generalized Nash equilibrium with unawareness.

    Sweeps A's belief p that B is unaware of down_B: for p < 1/2 a
    generalized Nash equilibrium has A playing across_A (modeler outcome
    (2,2)); for p > 1/2 every equilibrium has A playing down_A (outcome
    (1,1)). Also checks the canonical-representation equivalence and the
    virtual-move (awareness of unawareness) example. *)

module B = Beyond_nash
module A = B.Awareness
module Ex = B.Aware_examples

let name = "E9"
let title = "games with awareness: the paper's Figures 1-3 example"

let top_move profile pair info =
  match List.assoc_opt pair profile with
  | None -> "?"
  | Some beh -> (
    match List.assoc_opt info beh with
    | Some dist -> fst (List.hd (List.sort (fun (_, a) (_, b) -> compare b a) dist))
    | None -> "?")

let run ?jobs:_ () =
  let tab =
    B.Tab.create ~title
      [ "p (B unaware)"; "#GNE"; "A's moves in Gamma^A"; "best modeler outcome (A,B)" ]
  in
  List.iter
    (fun p ->
      let eqs = Ex.generalized_equilibria ~p in
      let a_moves =
        String.concat "/"
          (List.sort_uniq compare (List.map (fun prof -> top_move prof (0, "gameA") "A.1") eqs))
      in
      let best =
        List.fold_left
          (fun acc prof ->
            let o = Ex.modeler_outcome ~p prof in
            if o.(0) > fst acc then (o.(0), o.(1)) else acc)
          (neg_infinity, neg_infinity) eqs
      in
      B.Tab.add_row tab
        [
          B.Tab.fmt_float p;
          string_of_int (List.length eqs);
          a_moves;
          Printf.sprintf "(%s, %s)" (B.Tab.fmt_float (fst best)) (B.Tab.fmt_float (snd best));
        ])
    [ 0.0; 0.25; 0.4; 0.5; 0.6; 0.75; 1.0 ];
  B.Tab.print tab;
  let nes = Ex.underlying_nash_profiles () in
  B.Out.printf "underlying game's Nash equilibria (awareness ignored): %s\n"
    (String.concat "; " (List.map (fun (a, b) -> a ^ "+" ^ b) nes));
  B.Out.print_endline
    "shape check: Nash of Figure 1 includes (across_A, down_B), but once A assigns p > 1/2\n\
     to B being unaware of down_B, every generalized equilibrium has A playing down_A.\n";
  (* Canonical representation. *)
  let c = A.canonical Ex.underlying in
  let gne = A.pure_generalized_equilibria c in
  B.Out.printf
    "canonical representation of Figure 1: %d pure GNE = %d pure Nash strategy profiles\n"
    (List.length gne)
    (List.length (Ex.underlying_nash_profiles ()));
  (* Virtual moves. *)
  let tab2 =
    B.Tab.create ~title:"awareness of unawareness: virtual-move war game"
      [ "A's estimate of the unknown move"; "A's equilibrium action" ]
  in
  List.iter
    (fun est ->
      let g = Ex.virtual_move_game ~estimate:est in
      let moves =
        List.sort_uniq compare
          (List.map
             (fun prof -> top_move prof (0, "gameA") "A.war")
             (A.pure_generalized_equilibria g))
      in
      B.Tab.add_row tab2 [ B.Tab.fmt_float est; String.concat "/" moves ])
    [ -4.0; -2.0; 0.5; 1.5; 3.0 ];
  B.Tab.print tab2;
  B.Out.print_endline
    "shape check: a low evaluation of the unconceived move encourages peace overtures, as the\n\
     paper suggests for the war-settings discussion.\n"
