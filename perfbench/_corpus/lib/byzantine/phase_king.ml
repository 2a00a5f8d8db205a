module Sync_net = Bn_dist_sim.Sync_net

type msg = Value of int | King of int

type state = {
  n : int;
  t : int;
  mutable value : int;
  mutable tally : int array; (* votes for 0/1 in the current phase *)
}

(* Phase p (0-based) occupies rounds 2p+1 (everyone broadcasts its value)
   and 2p+2 (the king broadcasts its own value; processes with a weak
   majority adopt the king's value). *)
let protocol ~n ~t ~values =
  let init me = { n; t; value = values.(me); tally = Array.make 2 0 } in
  let send ~round ~me st =
    if round mod 2 = 1 then [ (Sync_net.All, Value st.value) ]
    else begin
      let king = ((round / 2) - 1) mod n in
      if me = king then [ (Sync_net.All, King st.value) ] else []
    end
  in
  let recv ~round ~me:_ st inbox =
    if round mod 2 = 1 then begin
      let tally = Array.make 2 0 in
      List.iter
        (fun (_, m) ->
          match m with
          | Value v when v = 0 || v = 1 -> tally.(v) <- tally.(v) + 1
          | Value _ | King _ -> ())
        inbox;
      st.tally <- tally;
      (* Adopt the majority value; strong majorities are kept next round. *)
      st.value <- (if tally.(1) > tally.(0) then 1 else 0);
      st
    end
    else begin
      let king = ((round / 2) - 1) mod st.n in
      let king_value =
        List.fold_left
          (fun acc (sender, m) ->
            match m with King v when sender = king -> Some v | King _ | Value _ -> acc)
          None inbox
      in
      let majority_strength = max st.tally.(0) st.tally.(1) in
      (* Berman-Garay rule: keep the majority value only when its
         multiplicity exceeds n/2 + t; otherwise defer to the king. *)
      let keep = 2 * majority_strength > st.n + (2 * st.t) in
      (match king_value with
      | Some kv when not keep -> st.value <- (if kv = 0 || kv = 1 then kv else 0)
      | Some _ | None -> ());
      st
    end
  in
  let output ~me:_ st = Some st.value in
  { Sync_net.init; send; recv; output }

let run ?adversary ?faults ~n ~t ~values () =
  Sync_net.run ?adversary ?faults ~n ~rounds:(2 * (t + 1)) (protocol ~n ~t ~values)

let lying_adversary ~corrupted ~claim =
  let behave ~round ~me:_ ~inbox:_ =
    if round mod 2 = 1 then [ (Sync_net.All, Value claim) ]
    else [ (Sync_net.All, King claim) ]
  in
  { Sync_net.corrupted; behave }

let agreement result =
  let decided = List.filter_map Fun.id (Array.to_list result.Sync_net.outputs) in
  match decided with [] -> true | v :: rest -> List.for_all (( = ) v) rest

let validity ~honest_values result =
  match honest_values with
  | [] -> true
  | v :: rest ->
    if List.for_all (( = ) v) rest then
      Array.for_all (function None -> true | Some d -> d = v) result.Sync_net.outputs
    else true
