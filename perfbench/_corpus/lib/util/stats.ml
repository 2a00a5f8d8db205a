let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let variance xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    mean (List.map (fun x -> (x -. m) *. (x -. m)) xs)

let stddev xs = sqrt (variance xs)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    let a = Array.of_list s in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let percentile p xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n = 1 then a.(0)
    else
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let gini xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  let total = Array.fold_left ( +. ) 0.0 a in
  if n = 0 || total <= 0.0 then 0.0
  else begin
    let weighted = ref 0.0 in
    Array.iteri (fun i x -> weighted := !weighted +. (float_of_int (i + 1) *. x)) a;
    ((2.0 *. !weighted) /. (float_of_int n *. total)) -. (float_of_int (n + 1) /. float_of_int n)
  end

let histogram ~bins xs =
  if bins <= 0 || xs = [] then [||]
  else begin
    let lo = List.fold_left min infinity xs in
    let hi = List.fold_left max neg_infinity xs in
    let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
    let counts = Array.make bins 0 in
    let place x =
      let idx = int_of_float ((x -. lo) /. width) in
      let idx = if idx >= bins then bins - 1 else if idx < 0 then 0 else idx in
      counts.(idx) <- counts.(idx) + 1
    in
    List.iter place xs;
    Array.init bins (fun i ->
        (lo +. (float_of_int i *. width), lo +. (float_of_int (i + 1) *. width), counts.(i)))
  end
