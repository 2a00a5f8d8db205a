type params = {
  users : int;
  cost : float;
  kick_scale : float;
  zipf_exponent : float;
  queries : int;
}

let default_params ~users =
  { users; cost = 1.0; kick_scale = 0.367; zipf_exponent = 1.2; queries = 50 * users }

type stats = {
  sharers : int;
  free_rider_fraction : float;
  top1_response_share : float;
  top10_response_share : float;
  gini_load : float;
}

(* A Zipf-ish heavy-tailed sample: scale / u^(1/exponent). *)
let zipf_sample rng ~scale ~exponent =
  let u = 1.0 -. Bn_util.Prng.float rng in
  scale /. (u ** (1.0 /. exponent))

(* Load-concentration statistics from the raw serve counts: shared by
   the boxed simulation below and the SoA engine ([Gnutella_soa]), which
   is QCheck-pinned to produce identical stats at shards = 1 — so this
   must stay a pure function of (users, sharers, served). *)
let stats_of_load ~users ~sharers ~served =
  let total_served = Array.fold_left ( + ) 0 served in
  let sorted = Array.copy served in
  Array.sort (fun a b -> compare b a) sorted;
  let top_share pct =
    if total_served = 0 then 0.0
    else begin
      let k = max 1 (users * pct / 100) in
      let top = ref 0 in
      for i = 0 to k - 1 do
        top := !top + sorted.(i)
      done;
      float_of_int !top /. float_of_int total_served
    end
  in
  {
    sharers;
    free_rider_fraction = 1.0 -. (float_of_int sharers /. float_of_int users);
    top1_response_share = top_share 1;
    top10_response_share = top_share 10;
    gini_load = Bn_util.Stats.gini (List.map float_of_int (Array.to_list served));
  }

let simulate rng params =
  Bn_obs.Obs.span "gnutella.simulate" @@ fun () ->
  let { users; cost; kick_scale; zipf_exponent; queries } = params in
  if users < 10 then invalid_arg "Gnutella.simulate: need at least 10 users";
  let kicks =
    Array.init users (fun _ -> zipf_sample rng ~scale:kick_scale ~exponent:zipf_exponent)
  in
  (* Dominant-strategy sharing decision: share iff the kick beats the cost. *)
  let shares = Array.map (fun k -> k > cost) kicks in
  let library i = if shares.(i) then Float.max 0.0 (kicks.(i) -. cost) else 0.0 in
  (* cum.(i) = library 0 +. … +. library i, as a left fold: monotone, and
     cum.(users - 1) is the total library. *)
  let cum = Array.make users 0.0 in
  let acc = ref 0.0 in
  for i = 0 to users - 1 do
    acc := !acc +. library i;
    cum.(i) <- !acc
  done;
  let total_library = cum.(users - 1) in
  let served = Array.make users 0 in
  if total_library > 0.0 then
    for _ = 1 to queries do
      (* Route the query to a host with probability proportional to its
         shared library: the first host i with x < cum.(i), clamped to the
         last host. *)
      let x = Bn_util.Prng.float rng *. total_library in
      let lo = ref 0 and hi = ref (users - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if x < cum.(mid) then hi := mid else lo := mid + 1
      done;
      served.(!lo) <- served.(!lo) + 1
    done;
  let sharers = Array.fold_left (fun acc s -> if s then acc + 1 else acc) 0 shares in
  stats_of_load ~users ~sharers ~served

let sharing_game ~n ~cost ~kicks ~download_value =
  if Array.length kicks <> n then invalid_arg "Gnutella.sharing_game: kicks arity";
  Bn_game.Normal_form.create
    ~action_names:(Array.make n [| "freeride"; "share" |])
    ~actions:(Array.make n 2)
    (fun p ->
      Array.init n (fun i ->
          let others_share = Array.exists (fun j -> j <> i && p.(j) = 1) (Array.init n Fun.id) in
          let dl = if others_share then download_value else 0.0 in
          dl +. if p.(i) = 1 then kicks.(i) -. cost else 0.0))

let free_riding_equilibrium ~n ~cost ~download_value =
  let game = sharing_game ~n ~cost ~kicks:(Array.make n 0.0) ~download_value in
  match Bn_game.Dominance.solves_by_dominance game with
  | Some profile -> Array.for_all (( = ) 0) profile
  | None -> false
