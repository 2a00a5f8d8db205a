module Pki = Bn_crypto.Hashing.Pki
module Sync_net = Bn_dist_sim.Sync_net

type chain = (int * Pki.signature) list
type msg = int * chain

type state = {
  me : int;
  t : int;
  sender : int;
  value : int;
  default : int;
  pki : Pki.t;
  accepted : (int, unit) Hashtbl.t;
  mutable to_relay : msg list;
}

let payload value = Printf.sprintf "ds|%d" value

let chain_valid st ~round (value, chain) =
  match chain with
  | [] -> false
  | (first, _) :: _ ->
    first = st.sender
    && List.length chain >= round
    && List.length (List.sort_uniq compare (List.map fst chain)) = List.length chain
    && List.for_all (fun (signer, s) -> Pki.verify st.pki ~signer ~msg:(payload value) s) chain

let protocol ~pki ~n:_ ~t ~sender ~value ~default =
  let init me =
    { me; t; sender; value; default; pki; accepted = Hashtbl.create 4; to_relay = [] }
  in
  let send ~round ~me:_ st =
    if round = 1 then begin
      if st.me = st.sender then begin
        Hashtbl.replace st.accepted st.value ();
        let s = Pki.sign st.pki ~signer:st.me ~msg:(payload st.value) in
        [ (Sync_net.All, (st.value, [ (st.me, s) ])) ]
      end
      else []
    end
    else begin
      let out = List.map (fun m -> (Sync_net.All, m)) st.to_relay in
      st.to_relay <- [];
      out
    end
  in
  let recv ~round ~me:_ st inbox =
    List.iter
      (fun (_, (v, chain)) ->
        if chain_valid st ~round (v, chain) && not (Hashtbl.mem st.accepted v) then begin
          Hashtbl.replace st.accepted v ();
          if round <= st.t && not (List.mem_assoc st.me chain) then begin
            let s = Pki.sign st.pki ~signer:st.me ~msg:(payload v) in
            st.to_relay <- (v, chain @ [ (st.me, s) ]) :: st.to_relay
          end
        end)
      inbox;
    st
  in
  let output ~me:_ st =
    match Bn_util.Tbl.sorted_keys st.accepted with
    | [ v ] -> Some v
    | _ -> Some st.default
  in
  { Sync_net.init; send; recv; output }

let run ?adversary ?faults ~pki ~n ~t ~sender ~value ~default () =
  Sync_net.run ?adversary ?faults ~n ~rounds:(t + 1) (protocol ~pki ~n ~t ~sender ~value ~default)

let equivocating_sender ~pki ~sender ~n =
  let behave ~round ~me ~inbox:_ =
    if round = 1 && me = sender then begin
      let sig0 = Pki.sign pki ~signer:sender ~msg:(payload 0) in
      let sig1 = Pki.sign pki ~signer:sender ~msg:(payload 1) in
      List.init n (fun j ->
          let v, s = if j < n / 2 then (0, sig0) else (1, sig1) in
          (Sync_net.To j, (v, [ (sender, s) ])))
    end
    else []
  in
  { Sync_net.corrupted = [ sender ]; behave }

let agreement result =
  let decided = List.filter_map Fun.id (Array.to_list result.Sync_net.outputs) in
  match decided with [] -> true | v :: rest -> List.for_all (( = ) v) rest

let validity_sender ~sender_value result =
  Array.for_all
    (function None -> true | Some d -> d = sender_value)
    result.Sync_net.outputs
