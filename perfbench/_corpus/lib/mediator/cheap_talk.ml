module Dist = Bn_util.Dist
module Eig = Bn_byzantine.Eig
module Sync_net = Bn_dist_sim.Sync_net
module Shamir = Bn_crypto.Shamir

type outcome = {
  actions : int option array;
  rounds : int;
  messages : int;
}

let generals_eig ?(corrupted = []) ?delivered ?faults ~n ~t ~general_type () =
  (* Round 1: dissemination. [delivered.(i)] is what player i heard from the
     general (equal to the type when the general is honest). *)
  let values =
    match delivered with
    | Some v ->
      if Array.length v <> n then invalid_arg "Cheap_talk.generals_eig: delivered arity";
      v
    | None -> Array.make n general_type
  in
  let adversary =
    match corrupted with
    | [] -> None
    | _ -> Some (Eig.lying_adversary ~n ~corrupted ~claim:(1 - general_type))
  in
  let result = Eig.run ?adversary ?faults ~n ~t ~values ~default:0 () in
  {
    actions = result.Sync_net.outputs;
    rounds = 1 + result.Sync_net.rounds_run;
    messages = n + result.Sync_net.messages_sent;
  }

let generals_naive ?delivered ~n ~general_type () =
  let values =
    match delivered with
    | Some v -> v
    | None -> Array.make n general_type
  in
  { actions = Array.init n (fun i -> Some values.(i)); rounds = 1; messages = n }

let tv_to_mediator ~n ~general_type outcome =
  let med = Ba_game.mediator ~n in
  let types = Array.init n (fun i -> if i = 0 then general_type else 0) in
  let med_dist = Mediated.outcome_for_types med types in
  (* Project both distributions onto honest players' coordinates. *)
  let honest = List.filter (fun i -> outcome.actions.(i) <> None) (List.init n Fun.id) in
  let project acts = List.map (fun i -> acts.(i)) honest in
  let med_proj = Dist.map project med_dist in
  let ct_proj =
    Dist.return (List.map (fun i -> Option.get outcome.actions.(i)) honest)
  in
  Dist.tv_distance med_proj ct_proj

type share_exchange_result = {
  succeeded : bool;
  reconstructions : int option array;
  threshold_needed : int;
}

let share_exchange rng ~n ~k ~t ~secret ~corrupted =
  let degree = k + t in
  if degree >= n then
    { succeeded = false; reconstructions = Array.make n None; threshold_needed = k + (3 * t) + 1 }
  else begin
    let shares = Array.of_list (Shamir.share rng ~secret ~threshold:degree ~n) in
    (* Corrupted players broadcast garbage shares; everyone sees the same
       (broadcast-channel) list of claimed shares. *)
    let claimed =
      Array.mapi
        (fun i s ->
          if List.mem i corrupted then { s with Shamir.y = Bn_crypto.Field.add s.Shamir.y (1 + Bn_util.Prng.int rng 1000) }
          else s)
        shares
    in
    let reconstructions =
      Array.init n (fun i ->
          if List.mem i corrupted then None
          else
            Shamir.robust_reconstruct ~degree ~max_errors:t (Array.to_list claimed))
    in
    let succeeded =
      List.for_all
        (fun i -> List.mem i corrupted || reconstructions.(i) = Some secret)
        (List.init n Fun.id)
    in
    { succeeded; reconstructions; threshold_needed = k + (3 * t) + 1 }
  end

let share_exchange_succeeds_theoretically ~n ~k ~t = n >= k + (3 * t) + 1
