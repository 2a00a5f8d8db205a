module Extensive = Bn_extensive.Extensive
open Extensive

let a_down = [| 1.0; 1.0 |]
let b_down = [| 2.0; 2.0 |]
let b_across = [| 0.0; 0.0 |]

let b_node info moves = Decision { player = 1; info; moves }

let full_b info =
  b_node info [ ("down_B", Terminal b_down); ("across_B", Terminal b_across) ]

let unaware_b info = b_node info [ ("across_B", Terminal b_across) ]

let a_node info continuation =
  Decision
    { player = 0; info; moves = [ ("down_A", Terminal a_down); ("across_A", continuation) ] }

let underlying = create ~n_players:2 (a_node "A" (full_b "B"))

let game_a ~p =
  create ~n_players:2
    (Chance
       [
         ("aware", 1.0 -. p, a_node "A.1" (full_b "B.1"));
         ("unaware", p, a_node "A.1" (unaware_b "B.2"));
       ])

let game_b = create ~n_players:2 (a_node "A.3" (unaware_b "B.3"))

let with_awareness ~p =
  if p < 0.0 || p > 1.0 then invalid_arg "Aware_examples.with_awareness: p in [0,1]";
  let f ~game ~info =
    match (game, info) with
    | "modeler", "A" -> ("gameA", "A.1")
    | "modeler", "B" -> ("modeler", "B")
    | "gameA", "A.1" -> ("gameA", "A.1")
    | "gameA", "B.1" -> ("modeler", "B")
    | "gameA", "B.2" -> ("gameB", "B.3")
    | "gameB", "A.3" -> ("gameB", "A.3")
    | "gameB", "B.3" -> ("gameB", "B.3")
    | g, i -> invalid_arg (Printf.sprintf "Aware_examples: F undefined at (%s,%s)" g i)
  in
  Awareness.create
    ~games:[ ("modeler", underlying); ("gameA", game_a ~p); ("gameB", game_b) ]
    ~modeler:"modeler" ~f

let generalized_equilibria ~p = Awareness.pure_generalized_equilibria (with_awareness ~p)

let modeler_outcome ~p profile =
  Awareness.expected_payoffs (with_awareness ~p) ~game:"modeler" profile

let underlying_nash_profiles () =
  let game, strategies = Extensive.to_normal_form underlying in
  let move_of pure info = List.assoc info pure in
  List.filter_map
    (fun profile ->
      if Bn_game.Nash.is_pure_nash game profile then begin
        let pa = List.nth strategies.(0) profile.(0) in
        let pb = List.nth strategies.(1) profile.(1) in
        Some (move_of pa "A", move_of pb "B")
      end
      else None)
    (Bn_game.Normal_form.profiles game)

(* Awareness of unawareness: the "new technology" game. *)

let modeler_war =
  create ~n_players:2
    (Decision
       {
         player = 0;
         info = "A.war";
         moves =
           [
             ("peace", Terminal [| 1.0; 1.0 |]);
             ( "attack",
               Decision
                 {
                   player = 1;
                   info = "B.war";
                   moves =
                     [
                       ("surrender", Terminal [| 3.0; -1.0 |]);
                       ("secret_weapon", Terminal [| -4.0; 4.0 |]);
                     ];
                 } );
           ];
       })

let subjective_war ~estimate =
  create ~n_players:2
    (Decision
       {
         player = 0;
         info = "A.war";
         moves =
           [
             ("peace", Terminal [| 1.0; 1.0 |]);
             ( "attack",
               Decision
                 {
                   player = 1;
                   info = "B.war.subjective";
                   moves =
                     [
                       ("surrender", Terminal [| 3.0; -1.0 |]);
                       (* Virtual move: A knows B has *some* unknown option;
                          she evaluates the continuation at [estimate]. *)
                       ("virtual", Terminal [| estimate; 2.0 |]);
                     ];
                 } );
           ];
       })

let virtual_move_game ~estimate =
  (* The modeler's game must expose the same move names at B's node as the
     believed game, so the virtual move is modelled as a renaming: the
     modeler game's B-node offers both concrete moves, and F maps A's view
     to the subjective game where the unknown move is virtual. B itself is
     fully aware. *)
  let f ~game ~info =
    match (game, info) with
    | "modeler", "A.war" -> ("gameA", "A.war")
    | "modeler", "B.war" -> ("modeler", "B.war")
    | "gameA", "A.war" -> ("gameA", "A.war")
    | "gameA", "B.war.subjective" -> ("gameA", "B.war.subjective")
    | g, i -> invalid_arg (Printf.sprintf "virtual_move_game: F undefined at (%s,%s)" g i)
  in
  Awareness.create
    ~games:[ ("modeler", modeler_war); ("gameA", subjective_war ~estimate) ]
    ~modeler:"modeler" ~f

let virtual_attack_utility ~estimate =
  (* B (in A's subjective game) best-responds: surrender (−1) vs virtual
     (2) → virtual. So attacking yields the estimate; peace yields 1. *)
  (estimate, 1.0)
