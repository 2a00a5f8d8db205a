type msg = (int list * int) list

(* The claim tree lives on flat per-level arrays instead of a hashtable of
   paths: a path [j1; …; jr] (all ids in 0..n−1) is packed as the base-n
   integer ((j1·n + j2)·n + …)·n + jr, so level r is an int array of size
   n^r plus a presence bitmap. Packing preserves order — for equal-length
   paths, ascending code order IS the lexicographic order that
   [Tbl.sorted_bindings] gave the old hashtable — so the broadcast claim
   lists, and hence every message and counter downstream, are unchanged.
   Claims whose paths carry out-of-range ids (only a hand-written adversary
   could fabricate one; none in the tree does) fall back to [extra], an
   assoc list merged and re-sorted on read, preserving the old accept-all
   semantics. *)
type state = {
  n : int;
  t : int;
  default : int;
  me : int;
  levels_v : int array array; (* levels_v.(r).(code): value at packed path *)
  levels_p : Bytes.t array; (* presence bitmap, same indexing *)
  extra : (int list * int) list ref; (* out-of-range paths, newest first *)
}

(* Decode [code] at level [r] back into the path list (most significant
   digit = first relayer). *)
let decode_path n r code =
  let rec go r code acc = if r = 0 then acc else go (r - 1) (code / n) ((code mod n) :: acc) in
  go r code []

(* Does the packed level-[r] code contain digit [id]? Equivalent to
   [List.mem id path] on the decoded path, without decoding. *)
let code_mem n id r code =
  let c = ref code and found = ref false in
  for _ = 1 to r do
    if !c mod n = id then found := true;
    c := !c / n
  done;
  !found

(* Claims at level [r] whose path does not contain [me], sorted by path —
   a pure function of the tree's contents, as the broadcast message must
   be. Codes are scanned in ascending order (= lex order on fixed-length
   paths) and only the survivors are decoded. *)
let send_entries st r ~me =
  if r < 0 || r >= Array.length st.levels_v then
    List.filter
      (fun (path, _) -> List.length path = r && not (List.mem me path))
      (List.rev !(st.extra))
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  else begin
    let vals = st.levels_v.(r) and pres = st.levels_p.(r) in
    let acc = ref [] in
    for code = Bytes.length pres - 1 downto 0 do
      if Bytes.unsafe_get pres code <> '\000' && not (code_mem st.n me r code) then
        acc := (decode_path st.n r code, vals.(code)) :: !acc
    done;
    match
      List.filter
        (fun (path, _) -> List.length path = r && not (List.mem me path))
        !(st.extra)
    with
    | [] -> !acc
    | ex -> List.sort (fun (a, _) (b, _) -> compare a b) (List.rev_append ex !acc)
  end

(* Pack [path] as a base-n code, expecting exactly [expect] digits, none
   equal to [sender] and all in 0..n−1. Returns the code (≥ 0), or −1 when
   the claim must be ignored (wrong length or relayed through [sender]), or
   −2 when some id is out of range (caller re-validates and falls back to
   [extra]). Allocation-free: this runs once per received claim. *)
let rec walk_code n sender expect path code =
  match path with
  | [] -> if expect = 0 then code else -1
  | j :: rest ->
    if expect = 0 || j = sender then -1
    else if j < 0 || j >= n then -2
    else walk_code n sender (expect - 1) rest ((code * n) + j)

let protocol ~n ~t ~values ~default =
  let init me =
    let pow_n r =
      let p = ref 1 in
      for _ = 1 to r do
        p := !p * n
      done;
      !p
    in
    let levels_v = Array.init (t + 2) (fun r -> Array.make (pow_n r) 0) in
    let levels_p = Array.init (t + 2) (fun r -> Bytes.make (Array.length levels_v.(r)) '\000') in
    levels_v.(0).(0) <- values.(me);
    Bytes.set levels_p.(0) 0 '\001';
    { n; t; default; me; levels_v; levels_p; extra = ref [] }
  in
  let send ~round ~me:_ st =
    (* Broadcast all claims at level round-1 whose path doesn't contain me;
       the root claim (own value) goes out in round 1. *)
    let entries = send_entries st (round - 1) ~me:st.me in
    if entries = [] then [] else [ (Bn_dist_sim.Sync_net.All, entries) ]
  in
  let recv ~round ~me:_ st inbox =
    let max_level = st.t + 1 in
    let rec claims_loop sender = function
      | [] -> ()
      | (path, v) :: rest ->
        let code = walk_code st.n sender (round - 1) path 0 in
        if code >= 0 then begin
          (* level of the extended path = round. *)
          if round <= max_level then begin
            let ext = (code * st.n) + sender in
            if Bytes.get st.levels_p.(round) ext = '\000' then begin
              st.levels_v.(round).(ext) <- v;
              Bytes.set st.levels_p.(round) ext '\001'
            end
          end
        end
        else if
          code = -2
          && List.length path = round - 1
          && not (List.mem sender path)
        then begin
          let extended = path @ [ sender ] in
          if List.length extended <= max_level && not (List.mem_assoc extended !(st.extra))
          then st.extra := (extended, v) :: !(st.extra)
        end;
        claims_loop sender rest
    in
    List.iter (fun (sender, claims) -> claims_loop sender claims) inbox;
    st
  in
  let output ~me:_ st =
    (* Recursive majority resolution from the leaves down to the root.
       [mask] tracks the ids already on the path (n ≤ word size); children
       are visited in ascending id order, and the strict-majority winner is
       unique, so a linear scan matches the old sorted-table lookup. *)
    (* One vote buffer per depth: the recursion below fills a depth's buffer
       while the parent's is still live, so depths can't share scratch. At
       any moment at most one call per depth is active. *)
    let vote_scratch = Array.init (st.t + 2) (fun _ -> Array.make st.n 0) in
    let rec resolve code mask len =
      if len = st.t + 1 then
        if Bytes.get st.levels_p.(len) code <> '\000' then st.levels_v.(len).(code)
        else st.default
      else begin
        let votes = vote_scratch.(len) in
        let nv = ref 0 in
        for l = 0 to st.n - 1 do
          if mask land (1 lsl l) = 0 then begin
            votes.(!nv) <- resolve ((code * st.n) + l) (mask lor (1 lsl l)) (len + 1);
            incr nv
          end
        done;
        let threshold = !nv / 2 in
        let winner = ref st.default in
        let found = ref false in
        let i = ref 0 in
        while (not !found) && !i < !nv do
          let v = votes.(!i) in
          let c = ref 0 in
          for j = 0 to !nv - 1 do
            if votes.(j) = v then incr c
          done;
          if !c > threshold then begin
            winner := v;
            found := true
          end;
          incr i
        done;
        !winner
      end
    in
    if st.t = 0 then
      Some (if Bytes.get st.levels_p.(0) 0 <> '\000' then st.levels_v.(0).(0) else st.default)
    else begin
      (* The root's children are all n ids; [resolve] needs its own vote
         scratch per level, so give the root a separate buffer. *)
      let root_votes = Array.init st.n (fun l -> resolve l (1 lsl l) 1) in
      let threshold = st.n / 2 in
      let winner = ref st.default in
      let found = ref false in
      let i = ref 0 in
      while (not !found) && !i < st.n do
        let v = root_votes.(!i) in
        let c = ref 0 in
        Array.iter (fun x -> if x = v then incr c) root_votes;
        if !c > threshold then begin
          winner := v;
          found := true
        end;
        incr i
      done;
      Some !winner
    end
  in
  { Bn_dist_sim.Sync_net.init; send; recv; output }

let run ?adversary ?faults ~n ~t ~values ~default () =
  Bn_dist_sim.Sync_net.run ?adversary ?faults ~n ~rounds:(t + 1) (protocol ~n ~t ~values ~default)

(* All paths of distinct ids not containing [me], of a given length, over
   processes 0..n-1. Used by adversaries to fabricate claims. *)
let paths_of_length n length =
  let rec go len acc_paths =
    if len = 0 then acc_paths
    else
      go (len - 1)
        (List.concat_map
           (fun path ->
             List.filter_map
               (fun j -> if List.mem j path then None else Some (path @ [ j ]))
               (List.init n Fun.id))
           acc_paths)
  in
  go length [ [] ]

let lying_adversary ~n ~corrupted ~claim =
  let behave ~round ~me ~inbox:_ =
    (* Claim at level round-1 that every path led to [claim]. *)
    let entries =
      List.filter_map
        (fun path -> if List.mem me path then None else Some (path, claim))
        (paths_of_length n (round - 1))
    in
    if entries = [] then [] else [ (Bn_dist_sim.Sync_net.All, entries) ]
  in
  { Bn_dist_sim.Sync_net.corrupted; behave }

let equivocating_adversary ~n ~corrupted rng =
  let behave ~round ~me ~inbox:_ =
    List.filter_map
      (fun dest ->
        let entries =
          List.filter_map
            (fun path ->
              if List.mem me path then None else Some (path, Bn_util.Prng.int rng 2))
            (paths_of_length n (round - 1))
        in
        if entries = [] then None else Some (Bn_dist_sim.Sync_net.To dest, entries))
      (List.init n Fun.id)
  in
  { Bn_dist_sim.Sync_net.corrupted; behave }

let agreement result =
  let decided = List.filter_map Fun.id (Array.to_list result.Bn_dist_sim.Sync_net.outputs) in
  match decided with [] -> true | v :: rest -> List.for_all (( = ) v) rest

let validity ~honest_values result =
  match honest_values with
  | [] -> true
  | v :: rest ->
    if List.for_all (( = ) v) rest then
      Array.for_all
        (function None -> true | Some d -> d = v)
        result.Bn_dist_sim.Sync_net.outputs
    else true
