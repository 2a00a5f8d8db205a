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

(* Replace the entry for [pair] in the profile. *)
let override profile pair strategy = (pair, strategy) :: List.remove_assoc pair profile

(* Pure local strategies available to a pair (player, game): one move per
   information set the player owns in that game. *)
let local_pure_strategies t ~player ~game =
  let g = find_game t game in
  Extensive.pure_strategies g ~player

let is_generalized_nash ?(eps = 1e-9) t profile =
  List.for_all
    (fun (player, gname) ->
      let base = (expected_payoffs t ~game:gname profile).(player) in
      List.for_all
        (fun pure ->
          let deviated = override profile (player, gname) (Extensive.behavioral_of_pure pure) in
          (expected_payoffs t ~game:gname deviated).(player) <= base +. eps)
        (local_pure_strategies t ~player ~game:gname))
    (required_pairs t)

let pure_generalized_equilibria t =
  let pairs = required_pairs t in
  let rec assign = function
    | [] -> [ [] ]
    | (player, gname) :: rest ->
      let tails = assign rest in
      List.concat_map
        (fun pure ->
          List.map
            (fun tail -> (((player, gname), Extensive.behavioral_of_pure pure)) :: tail)
            tails)
        (local_pure_strategies t ~player ~game:gname)
  in
  List.filter (is_generalized_nash t) (assign pairs)

let canonical g =
  let name = "canonical" in
  create ~games:[ (name, g) ] ~modeler:name ~f:(fun ~game:_ ~info -> (name, info))

let embed_canonical g strategies =
  List.concat
    (List.init (Extensive.n_players g) (fun player -> [ ((player, "canonical"), strategies.(player)) ]))
