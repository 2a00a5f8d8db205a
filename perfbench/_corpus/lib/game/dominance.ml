type mode = Strict | Weak

(* Compare actions a and b for [player] against every profile of the
   others. *)
let compare_actions g ~player a b =
  let acts = Normal_form.actions g in
  let others = Array.copy acts in
  others.(player) <- 1;
  let all_ge = ref true and some_gt = ref true and all_gt = ref true in
  some_gt := false;
  Bn_util.Combin.iter_profiles others (fun partial ->
      let p = Array.copy partial in
      p.(player) <- a;
      let ua = Normal_form.payoff g p player in
      p.(player) <- b;
      let ub = Normal_form.payoff g p player in
      if ua <= ub then all_gt := false;
      if ua < ub then all_ge := false;
      if ua > ub then some_gt := true);
  (!all_ge, !some_gt, !all_gt)

let dominates ?(mode = Strict) g ~player a b =
  if a = b then false
  else
    let all_ge, some_gt, all_gt = compare_actions g ~player a b in
    match mode with Strict -> all_gt | Weak -> all_ge && some_gt

let dominated_actions ?mode g ~player =
  let m = Normal_form.num_actions g player in
  let dominated = ref [] in
  for b = m - 1 downto 0 do
    let found = ref false in
    for a = 0 to m - 1 do
      if (not !found) && dominates ?mode g ~player a b then found := true
    done;
    if !found then dominated := b :: !dominated
  done;
  !dominated

(* Restrict a game to the given surviving actions (per player). *)
let restrict g surviving =
  let n = Normal_form.n_players g in
  let arr = Array.map Array.of_list surviving in
  let acts = Array.map Array.length arr in
  let action_names =
    Array.init n (fun i -> Array.map (Normal_form.action_name g i) arr.(i))
  in
  Normal_form.create
    ~player_names:(Array.init n (Normal_form.player_name g))
    ~action_names ~actions:acts
    (fun p ->
      let original = Array.init n (fun i -> arr.(i).(p.(i))) in
      Normal_form.payoff_vector g original)

let iterated_elimination ?(mode = Strict) g =
  let n = Normal_form.n_players g in
  let surviving = Array.init n (fun i -> List.init (Normal_form.num_actions g i) Fun.id) in
  let current = ref g in
  let changed = ref true in
  while !changed do
    changed := false;
    (* In Weak mode remove a single action per pass: the result of iterated
       weak dominance is order-dependent, so we fix the order (lowest player,
       lowest action). *)
    let removed_one = ref false in
    for i = 0 to n - 1 do
      if (not (!removed_one && mode = Weak)) && List.length surviving.(i) > 1 then begin
        match dominated_actions ~mode !current ~player:i with
        | [] -> ()
        | doomed ->
          let doomed = match mode with Strict -> doomed | Weak -> [ List.hd doomed ] in
          let keep =
            List.filteri (fun idx _ -> not (List.mem idx doomed)) surviving.(i)
          in
          if List.length keep >= 1 && List.length keep < List.length surviving.(i) then begin
            surviving.(i) <- keep;
            let local =
              Array.init n (fun j ->
                  if j = i then
                    List.filteri
                      (fun idx _ -> not (List.mem idx doomed))
                      (List.init (Normal_form.num_actions !current j) Fun.id)
                  else List.init (Normal_form.num_actions !current j) Fun.id)
            in
            current := restrict !current local;
            changed := true;
            removed_one := true
          end
      end
    done
  done;
  (!current, surviving)

let solves_by_dominance ?mode g =
  let reduced, surviving = iterated_elimination ?mode g in
  if Array.for_all (fun s -> List.length s = 1) surviving && Normal_form.n_players reduced > 0
  then Some (Array.map List.hd surviving)
  else None
