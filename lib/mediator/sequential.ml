module E = Bn_extensive.Extensive

type witness = {
  info : string;
  owner : int;
  coalition : int list;
  deviation : E.pure array;
  gains : (int * float) list;
}

(* {1 Trembling-hand machinery} *)

(* Mix every move at every information set with a uniform tremble, so every
   information set is reached with positive probability and beliefs are
   well-defined everywhere (the consistency half of sequential
   equilibrium). *)
let perturb game profile ~trembles =
  Array.mapi
    (fun p strat ->
      List.map
        (fun (info, _move_names) ->
          match List.assoc_opt info strat with
          | None -> invalid_arg ("Sequential.perturb: profile omits info set " ^ info)
          | Some dist ->
            let m = float_of_int (List.length dist) in
            ( info,
              List.map (fun (mv, pr) -> (mv, ((1.0 -. trembles) *. pr) +. (trembles /. m))) dist ))
        (E.info_sets game ~player:p))
    profile

let move_prob strat ~info ~move =
  match List.assoc_opt info strat with
  | None -> 0.0
  | Some dist -> ( match List.assoc_opt move dist with None -> 0.0 | Some p -> p)

(* Expected continuation payoffs from [node] when every player follows
   [strats]. *)
let rec value ~n node strats =
  match node with
  | E.Terminal pay -> pay
  | E.Chance edges ->
    let acc = Array.make n 0.0 in
    List.iter
      (fun (_, p, child) ->
        if p > 0.0 then
          let v = value ~n child strats in
          Array.iteri (fun i vi -> acc.(i) <- acc.(i) +. (p *. vi)) v)
      edges;
    acc
  | E.Decision { player; info; moves } ->
    let acc = Array.make n 0.0 in
    List.iter
      (fun (mv, child) ->
        let p = move_prob strats.(player) ~info ~move:mv in
        if p > 0.0 then
          let v = value ~n child strats in
          Array.iteri (fun i vi -> acc.(i) <- acc.(i) +. (p *. vi)) v)
      moves;
    acc

(* Nodes of information set [info] with their reach probabilities under the
   perturbed profile — the belief system. Descent stops at the information
   set: everything below is continuation, not belief. *)
let belief_nodes game ~perturbed ~info =
  let acc = ref [] in
  let rec walk node prob =
    if prob > 0.0 then
      match node with
      | E.Terminal _ -> ()
      | E.Chance edges -> List.iter (fun (_, p, child) -> walk child (prob *. p)) edges
      | E.Decision { player; info = i; moves } ->
        if i = info then acc := (node, prob) :: !acc
        else
          List.iter
            (fun (mv, child) -> walk child (prob *. move_prob perturbed.(player) ~info:i ~move:mv))
            moves
  in
  walk (E.root game) 1.0;
  List.rev !acc

(* Conditional expected payoffs at [info] as a function of the continuation
   profile: beliefs from the perturbed profile, continuation under the
   argument. [None] if the set is unreachable even with trembles (off the
   tree entirely). *)
let conditional_value game ~perturbed ~info =
  let n = E.n_players game in
  let nodes = belief_nodes game ~perturbed ~info in
  let total = List.fold_left (fun a (_, p) -> a +. p) 0.0 nodes in
  if total <= 0.0 then None
  else
    Some
      (fun strats ->
        List.fold_left
          (fun acc (node, p) ->
            let v = value ~n node strats in
            Array.mapi (fun i a -> a +. (p /. total *. v.(i))) acc)
          (Array.make n 0.0)
          nodes)

(* {1 The k-resilient sequential check} *)

(* Every information set, its owner, every coalition containing the owner,
   every joint pure deviation of the coalition: the profile is a k-resilient
   sequential equilibrium iff no deviation strictly improves every coalition
   member conditional on reaching the set (beliefs held fixed from the
   trembled profile). The coalitions and joint deviations are those of the
   extensive game's deviation kernel. *)
let check ?(trembles = 1e-3) ?(tol = 1e-9) game profile ~k =
  if k < 1 then invalid_arg "Sequential.check: need k >= 1";
  let n = E.n_players game in
  let perturbed = perturb game profile ~trembles in
  let pures = Array.init n (fun p -> Array.of_list (E.pure_strategies game ~player:p)) in
  let kernel = E.kernel game in
  let at_info owner (info, _moves) =
    match conditional_value game ~perturbed ~info with
    | None -> None
    | Some value ->
      let base = value profile in
      Bn_game.Kernel_game.find_coalition kernel profile ~max_size:k (fun coalition choice strats ->
          if not (List.mem owner coalition) then None
          else
            let dev = value strats in
            let gains =
              List.filter_map
                (fun p -> if dev.(p) -. base.(p) > tol then Some (p, dev.(p) -. base.(p)) else None)
                coalition
            in
            if List.length gains <> List.length coalition then None
            else
              Some
                {
                  info;
                  owner;
                  coalition;
                  deviation =
                    Array.of_list (List.mapi (fun j p -> pures.(p).(choice.(j))) coalition);
                  gains;
                })
  in
  List.find_map
    (fun owner -> List.find_map (at_info owner) (E.info_sets game ~player:owner))
    (List.init n Fun.id)

let is_sequentially_k_resilient ?trembles ?tol game profile ~k =
  check ?trembles ?tol game profile ~k = None

let describe w =
  Printf.sprintf "coalition {%s} gains at info set %S (owner %d): %s"
    (String.concat "," (List.map string_of_int w.coalition))
    w.info w.owner
    (String.concat ", "
       (List.map (fun (p, g) -> Printf.sprintf "player %d +%.3f" p g) w.gains))

(* {1 Canned threshold games} *)

(* Bullet 5/6's broadcast regime as a credibility question: punishing a
   defector is personally worthwhile for the punishers only when the
   honest-and-rational majority holds, i.e. n - (k+t) > n/2 <=> n > 2k+2t.
   Below the threshold the threat is non-credible: the profile stays Nash
   (the punisher's information set is off-path) but fails the sequential
   check exactly there. Player 0 is the coalition's deviator, player 1 the
   representative punisher, players 2.. are bystanders. *)
let punishment_game ~n ~k ~t =
  if n < 2 || k < 1 || t < 0 then
    invalid_arg "Sequential.punishment_game: need n >= 2, k >= 1, t >= 0";
  let majority = 2 * (n - (k + t)) > n in
  let pay v0 v1 =
    Array.init n (fun i -> if i = 0 then v0 else if i = 1 then v1 else 0.0)
  in
  let tree =
    E.Decision
      {
        player = 0;
        info = "lead";
        moves =
          [
            ("obey", E.Terminal (Array.make n 2.0));
            ( "defect",
              E.Decision
                {
                  player = 1;
                  info = "react";
                  moves =
                    [
                      ("punish", E.Terminal (pay (-1.0) (if majority then 1.0 else -1.0)));
                      ("ignore", E.Terminal (pay 5.0 0.0));
                    ];
                } );
          ];
      }
  in
  let game = E.create ~n_players:n tree in
  let profile =
    Array.init n (fun p ->
        if p = 0 then [ ("lead", [ ("obey", 1.0); ("defect", 0.0) ]) ]
        else if p = 1 then [ ("react", [ ("punish", 1.0); ("ignore", 0.0) ]) ]
        else [])
  in
  (game, profile)

(* The asynchronous stall game: a coalition proxy (player 0) can withhold
   its relays. When n > 4(k+t) decoding succeeds from the remaining shares
   and withholding is pointless; otherwise it stalls the honest parties,
   who can only abort — the deviation the n > 4(k+t) bound exists to kill.
   Agrees with {!Feasibility.classify_async} on both sides. *)
let async_stall_game ~n ~k ~t =
  if n < 2 || k < 1 || t < 0 then
    invalid_arg "Sequential.async_stall_game: need n >= 2, k >= 1, t >= 0";
  let f = k + t in
  let decodes = n - f >= (3 * f) + 1 in
  let pay v0 rest = Array.init n (fun i -> if i = 0 then v0 else rest) in
  let tree =
    E.Decision
      {
        player = 0;
        info = "relay?";
        moves =
          [
            ("relay", E.Terminal (Array.make n 2.0));
            ( "withhold",
              if decodes then E.Terminal (pay 1.9 2.0)
              else
                E.Decision
                  {
                    player = 1;
                    info = "stalled";
                    moves =
                      [
                        ("abort", E.Terminal (pay 3.0 0.0));
                        ("wait", E.Terminal (pay 3.0 (-1.0)));
                      ];
                  } );
          ];
      }
  in
  let game = E.create ~n_players:n tree in
  let profile =
    Array.init n (fun p ->
        if p = 0 then [ ("relay?", [ ("relay", 1.0); ("withhold", 0.0) ]) ]
        else if p = 1 && not decodes then [ ("stalled", [ ("abort", 1.0); ("wait", 0.0) ]) ]
        else [])
  in
  (game, profile)
