module Extensive = Bn_extensive.Extensive

type t = {
  games : (string * Extensive.t) list;
  modeler : string;
  f : game:string -> info:string -> string * string;
}

let find_game t name =
  match List.assoc_opt name t.games with
  | Some g -> g
  | None -> invalid_arg ("Awareness: unknown game " ^ name)

(* All (info set, mover, move names) triples of a game. *)
let info_sets_with_players g =
  List.concat_map
    (fun player ->
      List.map (fun (info, moves) -> (info, player, moves)) (Extensive.info_sets g ~player))
    (List.init (Extensive.n_players g) Fun.id)

let create ~games ~modeler ~f =
  if not (List.mem_assoc modeler games) then
    invalid_arg "Awareness.create: modeler game not in collection";
  let t = { games; modeler; f } in
  (* Validate F on every information set of every game. *)
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun (info, _player, moves) ->
          let bg_name, binfo = f ~game:gname ~info in
          let bg = find_game t bg_name in
          let believed_sets = info_sets_with_players bg in
          match List.find_opt (fun (i, _, _) -> i = binfo) believed_sets with
          | None ->
            invalid_arg
              (Printf.sprintf "Awareness.create: F(%s,%s) -> (%s,%s) dangling" gname info
                 bg_name binfo)
          | Some (_, _, bmoves) ->
            if not (List.for_all (fun m -> List.mem m moves) bmoves) then
              invalid_arg
                (Printf.sprintf
                   "Awareness.create: believed moves at F(%s,%s) not available at the node"
                   gname info))
        (info_sets_with_players g))
    games;
  t

let games t = t.games
let modeler t = t.modeler

let required_pairs t =
  let acc = ref [] in
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun (info, player, _) ->
          let bg, _ = t.f ~game:gname ~info in
          if not (List.mem (player, bg) !acc) then acc := (player, bg) :: !acc)
        (info_sets_with_players g))
    t.games;
  List.rev !acc

type profile = ((int * string) * Extensive.behavioral) list

(* Build, for game [gname], the per-player behavioral strategies induced by
   the generalized profile through F: at info set I of player i, play
   σ_{(i, F(gname, I).game)} at information set F(gname, I).info. *)
let induced_strategies t ~game:gname profile =
  let g = find_game t gname in
  Array.init (Extensive.n_players g) (fun player ->
      List.map
        (fun (info, _moves) ->
          let bg, binfo = t.f ~game:gname ~info in
          match List.assoc_opt (player, bg) profile with
          | None ->
            invalid_arg
              (Printf.sprintf "Awareness: profile missing pair (player %d, %s)" player bg)
          | Some behavioral -> (
            match List.assoc_opt binfo behavioral with
            | Some dist -> (info, dist)
            | None ->
              invalid_arg
                (Printf.sprintf "Awareness: strategy for (%d,%s) missing info set %s" player
                   bg binfo)))
        (Extensive.info_sets g ~player))

let expected_payoffs t ~game profile =
  let g = find_game t game in
  Extensive.expected_payoffs g (induced_strategies t ~game profile)

(* One agent per required pair (player, game): its options are the pure
   local strategies (one move per information set the player owns in that
   game), its utility the player's payoff computed in that game. Deviating
   replaces the pair's entry at the head of the profile, so the pure
   profiles (built last agent first) list the pairs in required order. *)
let kernel t =
  let pairs = Array.of_list (required_pairs t) in
  let pures =
    Array.map
      (fun (player, game) -> Array.of_list (Extensive.pure_strategies (find_game t game) ~player))
      pairs
  in
  {
    Bn_game.Kernel_game.agents = Array.length pairs;
    options = (fun a -> Array.length pures.(a));
    deviate =
      (fun profile a o ->
        (pairs.(a), Extensive.behavioral_of_pure pures.(a).(o))
        :: List.remove_assoc pairs.(a) profile);
    utility =
      (fun profile a ->
        let player, game = pairs.(a) in
        (expected_payoffs t ~game profile).(player));
  }

let is_generalized_nash ?eps t profile = Bn_game.Kernel_game.is_nash ?eps (kernel t) profile

let pure_generalized_equilibria t = Bn_game.Kernel_game.pure_equilibria (kernel t) []

let canonical g =
  let name = "canonical" in
  create ~games:[ (name, g) ] ~modeler:name ~f:(fun ~game:_ ~info -> (name, info))

let embed_canonical g strategies =
  List.concat
    (List.init (Extensive.n_players g) (fun player -> [ ((player, "canonical"), strategies.(player)) ]))
