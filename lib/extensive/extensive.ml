module Dist = Bn_util.Dist

type node =
  | Terminal of float array
  | Chance of (string * float * node) list
  | Decision of { player : int; info : string; moves : (string * node) list }

type t = { n : int; root : node }

let create ~n_players root =
  if n_players <= 0 then invalid_arg "Extensive.create: need players";
  (* info set label -> move names, for consistency checking *)
  let seen : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let rec check = function
    | Terminal payoffs ->
      if Array.length payoffs <> n_players then
        invalid_arg "Extensive.create: payoff arity"
    | Chance edges ->
      if edges = [] then invalid_arg "Extensive.create: empty chance node";
      let total = List.fold_left (fun acc (_, p, _) -> acc +. p) 0.0 edges in
      if Float.abs (total -. 1.0) > 1e-9 then
        invalid_arg "Extensive.create: chance probabilities must sum to 1";
      List.iter (fun (_, p, child) ->
          if p < 0.0 then invalid_arg "Extensive.create: negative probability";
          check child)
        edges
    | Decision { player; info; moves } ->
      if player < 0 || player >= n_players then
        invalid_arg "Extensive.create: player out of range";
      if moves = [] then invalid_arg "Extensive.create: empty decision node";
      let names = List.map fst moves in
      (match Hashtbl.find_opt seen info with
      | None -> Hashtbl.replace seen info names
      | Some existing ->
        if existing <> names then
          invalid_arg "Extensive.create: inconsistent moves within an information set");
      List.iter (fun (_, child) -> check child) moves
  in
  check root;
  { n = n_players; root }

let root t = t.root
let n_players t = t.n

let info_sets t ~player =
  let acc = ref [] in
  let seen = Hashtbl.create 16 in
  let rec go = function
    | Terminal _ -> ()
    | Chance edges -> List.iter (fun (_, _, child) -> go child) edges
    | Decision { player = p; info; moves } ->
      if p = player && not (Hashtbl.mem seen info) then begin
        Hashtbl.replace seen info ();
        acc := (info, List.map fst moves) :: !acc
      end;
      List.iter (fun (_, child) -> go child) moves
  in
  go t.root;
  List.rev !acc

let histories t =
  let rec go prefix = function
    | Terminal _ -> [ List.rev prefix ]
    | Chance edges -> List.concat_map (fun (lbl, _, child) -> go (lbl :: prefix) child) edges
    | Decision { moves; _ } ->
      List.concat_map (fun (lbl, child) -> go (lbl :: prefix) child) moves
  in
  go [] t.root

type pure = (string * string) list
type behavioral = (string * (string * float) list) list

let pure_strategies t ~player =
  let sets = info_sets t ~player in
  let rec go = function
    | [] -> [ [] ]
    | (info, moves) :: rest ->
      let tails = go rest in
      List.concat_map (fun m -> List.map (fun tail -> (info, m) :: tail) tails) moves
  in
  go sets

let behavioral_of_pure pure = List.map (fun (info, move) -> (info, [ (move, 1.0) ])) pure

let outcome t strategies =
  if Array.length strategies <> t.n then invalid_arg "Extensive.outcome: profile arity";
  let rec go prob = function
    | Terminal payoffs -> [ (payoffs, prob) ]
    | Chance edges ->
      List.concat_map (fun (_, p, child) -> if p > 0.0 then go (prob *. p) child else []) edges
    | Decision { player; info; moves } -> (
      match List.assoc_opt info strategies.(player) with
      | None -> invalid_arg ("Extensive.outcome: no strategy at info set " ^ info)
      | Some dist ->
        List.concat_map
          (fun (move, p) ->
            if p <= 0.0 then []
            else
              match List.assoc_opt move moves with
              | None -> invalid_arg ("Extensive.outcome: unknown move " ^ move)
              | Some child -> go (prob *. p) child)
          dist)
  in
  Dist.of_list (go 1.0 t.root)

let expected_payoffs t strategies =
  let dist = outcome t strategies in
  let n = t.n in
  let total = Array.make n 0.0 in
  List.iter
    (fun (payoffs, p) ->
      for i = 0 to n - 1 do
        total.(i) <- total.(i) +. (p *. payoffs.(i))
      done)
    (Dist.to_list dist);
  total

let to_normal_form t =
  let strategy_lists = Array.init t.n (fun i -> Array.of_list (pure_strategies t ~player:i)) in
  let actions = Array.map Array.length strategy_lists in
  let game =
    Bn_game.Normal_form.create ~actions (fun p ->
        let strategies =
          Array.init t.n (fun i -> behavioral_of_pure strategy_lists.(i).(p.(i)))
        in
        expected_payoffs t strategies)
  in
  (game, Array.map Array.to_list strategy_lists)

let backward_induction t =
  List.iter
    (fun player ->
      let sets = info_sets t ~player in
      let count = Hashtbl.create 16 in
      let rec tally = function
        | Terminal _ -> ()
        | Chance edges -> List.iter (fun (_, _, c) -> tally c) edges
        | Decision { info; moves; player = p } ->
          if p = player then
            Hashtbl.replace count info (1 + Option.value ~default:0 (Hashtbl.find_opt count info));
          List.iter (fun (_, c) -> tally c) moves
      in
      tally t.root;
      List.iter
        (fun (info, _) ->
          if Option.value ~default:0 (Hashtbl.find_opt count info) > 1 then
            invalid_arg "Extensive.backward_induction: imperfect information")
        sets)
    (List.init t.n Fun.id);
  let choices = Array.make t.n [] in
  let rec solve = function
    | Terminal payoffs -> Array.copy payoffs
    | Chance edges ->
      let acc = Array.make t.n 0.0 in
      List.iter
        (fun (_, p, child) ->
          let v = solve child in
          for i = 0 to t.n - 1 do
            acc.(i) <- acc.(i) +. (p *. v.(i))
          done)
        edges;
      acc
    | Decision { player; info; moves } ->
      let values = List.map (fun (lbl, child) -> (lbl, solve child)) moves in
      let best_lbl, best_v =
        List.fold_left
          (fun (bl, bv) (lbl, v) -> if v.(player) > bv.(player) then (lbl, v) else (bl, bv))
          (List.hd values) (List.tl values)
      in
      choices.(player) <- (info, best_lbl) :: choices.(player);
      best_v
  in
  let value = solve t.root in
  (Array.map List.rev choices, value)

let kernel t =
  let pures = Array.init t.n (fun i -> Array.of_list (pure_strategies t ~player:i)) in
  {
    Bn_game.Kernel_game.agents = t.n;
    options = (fun i -> Array.length pures.(i));
    deviate =
      (fun strategies i o ->
        Bn_game.Kernel_game.set strategies i (behavioral_of_pure pures.(i).(o)));
    utility = (fun strategies i -> (expected_payoffs t strategies).(i));
  }

let is_nash ?eps t strategies = Bn_game.Kernel_game.is_nash ?eps (kernel t) strategies

let to_dot ?(title = "game") t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n  node [fontname=\"monospace\"];\n" title);
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "n%d" !counter
  in
  let rec go node =
    let id = fresh () in
    (match node with
    | Terminal payoffs ->
      let label =
        String.concat "," (List.map (Printf.sprintf "%g") (Array.to_list payoffs))
      in
      Buffer.add_string buf (Printf.sprintf "  %s [shape=box,label=\"(%s)\"];\n" id label)
    | Chance edges ->
      Buffer.add_string buf (Printf.sprintf "  %s [shape=diamond,label=\"chance\"];\n" id);
      List.iter
        (fun (lbl, p, child) ->
          let cid = go child in
          Buffer.add_string buf
            (Printf.sprintf "  %s -> %s [label=\"%s (%.2f)\"];\n" id cid lbl p))
        edges
    | Decision { player; info; moves } ->
      Buffer.add_string buf
        (Printf.sprintf "  %s [shape=ellipse,label=\"P%d/%s\"];\n" id (player + 1) info);
      List.iter
        (fun (lbl, child) ->
          let cid = go child in
          Buffer.add_string buf (Printf.sprintf "  %s -> %s [label=%S];\n" id cid lbl))
        moves);
    id
  in
  ignore (go t.root);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
