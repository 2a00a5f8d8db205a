module Sync_net = Bn_dist_sim.Sync_net

type msg = int list

type state = { seen : int list }

let protocol ~n:_ ~f:_ ~values =
  let init me = { seen = [ values.(me) ] } in
  let send ~round:_ ~me:_ st = [ (Sync_net.All, st.seen) ] in
  let recv ~round:_ ~me:_ st inbox =
    let merged =
      List.fold_left (fun acc (_, vs) -> List.rev_append vs acc) st.seen inbox
    in
    { seen = List.sort_uniq compare merged }
  in
  let output ~me:_ st =
    match st.seen with [] -> None | v :: _ -> Some v (* sorted: min rule *)
  in
  { Sync_net.init; send; recv; output }

let run ?adversary ?faults ~n ~f ~values () =
  Sync_net.run ?adversary ?faults ~n ~rounds:(f + 1) (protocol ~n ~f ~values)

let crash_after ~rng ~n ~corrupted ~values ~round =
  let behave ~round:r ~me ~inbox:_ =
    if r < round then [ (Sync_net.All, [ values.(me) ]) ]
    else if r = round then begin
      (* Mid-broadcast crash: deliver to a random prefix only. *)
      let reached = Bn_util.Prng.int rng (n + 1) in
      List.init reached (fun j -> (Sync_net.To j, [ values.(me) ]))
    end
    else []
  in
  { Sync_net.corrupted; behave }

let agreement result =
  let decided = List.filter_map Fun.id (Array.to_list result.Sync_net.outputs) in
  match decided with [] -> true | v :: rest -> List.for_all (( = ) v) rest

let validity ~all_values result =
  Array.for_all
    (function None -> true | Some d -> List.mem d all_values)
    result.Sync_net.outputs
