module Obs = Bn_obs.Obs

(* Synchronous runs happen in Pool.map_array sweeps (explorer trials,
   experiment grids) and sequential shrink loops — never under an
   early-exit scan — so all four counters are deterministic: identical
   at any -j and across same-seed reruns (asserted in test_obs). *)
let c_runs = Obs.counter "sync_net.runs"
let c_rounds = Obs.counter "sync_net.rounds"
let c_sent = Obs.counter "sync_net.messages_sent"
let c_dropped = Obs.counter "sync_net.messages_dropped"

type dest = To of int | All

type ('s, 'm, 'o) protocol = {
  init : int -> 's;
  send : round:int -> me:int -> 's -> (dest * 'm) list;
  recv : round:int -> me:int -> 's -> (int * 'm) list -> 's;
  output : me:int -> 's -> 'o option;
}

type 'm adversary = {
  corrupted : int list;
  behave : round:int -> me:int -> inbox:(int * 'm) list -> (dest * 'm) list;
}

let silent corrupted = { corrupted; behave = (fun ~round:_ ~me:_ ~inbox:_ -> []) }

(* Environment faults, orthogonal to the (process-level) adversary above:
   [crashed ~round me] says whether [me] has crash-stopped by [round]
   (must be monotone in [round]); [on_link ~round ~src ~dst m] rewrites one
   attempted delivery into the list of [(delivery_round, payload)] that the
   network actually performs — [[]] drops it, two entries duplicate it, a
   later round delays it, a changed payload corrupts it. Honest-protocol
   code never sees this layer; [Faults.plan] compiles declarative fault
   schedules into it. *)
type 'm fault_plan = {
  crashed : round:int -> int -> bool;
  on_link : round:int -> src:int -> dst:int -> 'm -> (int * 'm) list;
}

type 'o result = {
  outputs : 'o option array;
  rounds_run : int;
  messages_sent : int;
  messages_dropped : int;
}

let run ?adversary ?faults ~n ~rounds protocol =
  if n <= 0 then invalid_arg "Sync_net.run: need processes";
  Obs.incr c_runs;
  Obs.span "sync_net.run" ~args:(fun () -> [ ("n", Obs.I n); ("rounds", Obs.I rounds) ])
  @@ fun () ->
  let corrupted =
    match adversary with None -> [||] | Some a -> Array.of_list a.corrupted
  in
  let is_corrupt i = Array.exists (( = ) i) corrupted in
  let crashed ~round me =
    match faults with None -> false | Some f -> f.crashed ~round me
  in
  let on_link ~round ~src ~dst m =
    match faults with None -> [ (round, m) ] | Some f -> f.on_link ~round ~src ~dst m
  in
  let states = Array.init n protocol.init in
  let inboxes = Array.make n [] in
  let messages = ref 0 in
  let dropped = ref 0 in
  (* future.(r-1): deliveries delayed into round r, in arrival order. *)
  let future = Array.make rounds [] in
  for round = 1 to rounds do
    Obs.span "sync_net.round" ~args:(fun () -> [ ("round", Obs.I round) ]) @@ fun () ->
    let outgoing = Array.make n [] in
    for me = 0 to n - 1 do
      let traffic =
        if crashed ~round me then []
        else if is_corrupt me then
          match adversary with
          | Some a -> a.behave ~round ~me ~inbox:inboxes.(me)
          | None -> []
        else protocol.send ~round ~me states.(me)
      in
      outgoing.(me) <- traffic
    done;
    let next_inboxes = Array.make n [] in
    List.iter
      (fun (dst, entry) -> next_inboxes.(dst) <- entry :: next_inboxes.(dst))
      (List.rev future.(round - 1));
    let deliver sender dst msg =
      let deliveries = on_link ~round ~src:sender ~dst msg in
      if deliveries = [] then incr dropped;
      List.iter
        (fun (r, m) ->
          if r <= round then next_inboxes.(dst) <- (sender, m) :: next_inboxes.(dst)
          else if r > rounds then incr dropped
          else future.(r - 1) <- (dst, (sender, m)) :: future.(r - 1))
        deliveries
    in
    for sender = 0 to n - 1 do
      List.iter
        (fun (dest, msg) ->
          match dest with
          | To j ->
            if j < 0 || j >= n then invalid_arg "Sync_net.run: destination out of range";
            incr messages;
            deliver sender j msg
          | All ->
            messages := !messages + n;
            for j = 0 to n - 1 do
              deliver sender j msg
            done)
        outgoing.(sender)
    done;
    for me = 0 to n - 1 do
      let inbox = List.sort (fun (a, _) (b, _) -> compare a b) next_inboxes.(me) in
      inboxes.(me) <- inbox;
      if not (is_corrupt me || crashed ~round me) then
        states.(me) <- protocol.recv ~round ~me states.(me) inbox
    done
  done;
  let outputs =
    Array.init n (fun me ->
        if is_corrupt me || crashed ~round:rounds me then None
        else protocol.output ~me states.(me))
  in
  Obs.add c_rounds rounds;
  Obs.add c_sent !messages;
  Obs.add c_dropped !dropped;
  { outputs; rounds_run = rounds; messages_sent = !messages; messages_dropped = !dropped }
