type t = {
  name : string;
  start : int;
  output : int array;
  next : int array array;
}

let size m = Array.length m.output

let validate m =
  let n = size m in
  if n = 0 then invalid_arg "Automaton: no states";
  if m.start < 0 || m.start >= n then invalid_arg "Automaton: bad start state";
  Array.iter (fun a -> if a <> 0 && a <> 1 then invalid_arg "Automaton: bad output") m.output;
  if Array.length m.next <> n then invalid_arg "Automaton: transition arity";
  Array.iter
    (fun row ->
      if Array.length row <> 2 then invalid_arg "Automaton: need transitions for both opponent actions";
      Array.iter (fun s -> if s < 0 || s >= n then invalid_arg "Automaton: bad transition") row)
    m.next

let step m ~state ~opp = m.next.(state).(opp)
let action m ~state = m.output.(state)

let all_c = { name = "AllC"; start = 0; output = [| 0 |]; next = [| [| 0; 0 |] |] }
let all_d = { name = "AllD"; start = 0; output = [| 1 |]; next = [| [| 0; 0 |] |] }

(* State = opponent's last action. *)
let tit_for_tat =
  { name = "TfT"; start = 0; output = [| 0; 1 |]; next = [| [| 0; 1 |]; [| 0; 1 |] |] }

let grim =
  { name = "Grim"; start = 0; output = [| 0; 1 |]; next = [| [| 0; 1 |]; [| 1; 1 |] |] }

(* Pavlov: repeat own action after a good outcome (opponent cooperated),
   switch after a bad one. State = own current action. *)
let pavlov =
  { name = "Pavlov"; start = 0; output = [| 0; 1 |]; next = [| [| 0; 1 |]; [| 1; 0 |] |] }

let alternator =
  { name = "Alternator"; start = 0; output = [| 0; 1 |]; next = [| [| 1; 1 |]; [| 0; 0 |] |] }

(* States are pairs (round index r in 0..horizon-1, opponent's last action),
   encoded r*2 + last. In the final round the machine defects regardless. *)
let tft_defect_last ~horizon =
  if horizon < 2 then invalid_arg "Automaton.tft_defect_last: horizon >= 2";
  let states = 2 * horizon in
  let output =
    Array.init states (fun s ->
        let r = s / 2 and last = s mod 2 in
        if r >= horizon - 1 then 1 else if r = 0 then 0 else last)
  in
  let next =
    Array.init states (fun s ->
        let r = s / 2 in
        let r' = min (horizon - 1) (r + 1) in
        [| (r' * 2) + 0; (r' * 2) + 1 |])
  in
  { name = Printf.sprintf "TfT-last-defect(%d)" horizon; start = 0; output; next }

let defect_from ~round ~horizon =
  if round < 1 || round > horizon then invalid_arg "Automaton.defect_from: bad round";
  let states = 2 * horizon in
  let output =
    Array.init states (fun s ->
        let r = s / 2 and last = s mod 2 in
        if r >= round - 1 then 1 else if r = 0 then 0 else last)
  in
  let next =
    Array.init states (fun s ->
        let r = s / 2 in
        let r' = min (horizon - 1) (r + 1) in
        [| (r' * 2) + 0; (r' * 2) + 1 |])
  in
  { name = Printf.sprintf "Defect-from(%d/%d)" round horizon; start = 0; output; next }
