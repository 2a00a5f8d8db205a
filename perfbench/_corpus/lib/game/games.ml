let cd = [| "C"; "D" |]

let prisoners_dilemma =
  Normal_form.create ~action_names:[| cd; cd |] ~actions:[| 2; 2 |] (fun p ->
      match (p.(0), p.(1)) with
      | 0, 0 -> [| 3.0; 3.0 |]
      | 0, 1 -> [| -5.0; 5.0 |]
      | 1, 0 -> [| 5.0; -5.0 |]
      | _ -> [| -3.0; -3.0 |])

let prisoners_dilemma_classic =
  Normal_form.create ~action_names:[| cd; cd |] ~actions:[| 2; 2 |] (fun p ->
      match (p.(0), p.(1)) with
      | 0, 0 -> [| 3.0; 3.0 |]
      | 0, 1 -> [| 0.0; 5.0 |]
      | 1, 0 -> [| 5.0; 0.0 |]
      | _ -> [| 1.0; 1.0 |])

let coordination_01 n =
  if n < 2 then invalid_arg "Games.coordination_01: need at least 2 players";
  Normal_form.create
    ~action_names:(Array.make n [| "0"; "1" |])
    ~actions:(Array.make n 2)
    (fun p ->
      let ones = Array.fold_left ( + ) 0 p in
      if ones = 0 then Array.make n 1.0
      else if ones = 2 then Array.map (fun a -> if a = 1 then 2.0 else 0.0) p
      else Array.make n 0.0)

let bargaining n =
  if n < 2 then invalid_arg "Games.bargaining: need at least 2 players";
  Normal_form.create
    ~action_names:(Array.make n [| "stay"; "leave" |])
    ~actions:(Array.make n 2)
    (fun p ->
      let leavers = Array.fold_left ( + ) 0 p in
      if leavers = 0 then Array.make n 2.0
      else Array.map (fun a -> if a = 1 then 1.0 else 0.0) p)

let rps = [| "rock"; "paper"; "scissors" |]

(* Ex 3.3 convention: i beats j when i = j ⊕ 1 (addition mod 3). *)
let roshambo =
  Normal_form.create ~action_names:[| rps; rps |] ~actions:[| 3; 3 |] (fun p ->
      let i = p.(0) and j = p.(1) in
      let u1 = if i = (j + 1) mod 3 then 1.0 else if j = (i + 1) mod 3 then -1.0 else 0.0 in
      [| u1; -.u1 |])

let hx = [| "H"; "T" |]

let matching_pennies =
  Normal_form.create ~action_names:[| hx; hx |] ~actions:[| 2; 2 |] (fun p ->
      let u1 = if p.(0) = p.(1) then 1.0 else -1.0 in
      [| u1; -.u1 |])

let battle_of_sexes =
  Normal_form.create
    ~action_names:[| [| "opera"; "football" |]; [| "opera"; "football" |] |]
    ~actions:[| 2; 2 |]
    (fun p ->
      match (p.(0), p.(1)) with
      | 0, 0 -> [| 2.0; 1.0 |]
      | 1, 1 -> [| 1.0; 2.0 |]
      | _ -> [| 0.0; 0.0 |])

let stag_hunt =
  Normal_form.create
    ~action_names:[| [| "stag"; "hare" |]; [| "stag"; "hare" |] |]
    ~actions:[| 2; 2 |]
    (fun p ->
      match (p.(0), p.(1)) with
      | 0, 0 -> [| 4.0; 4.0 |]
      | 0, 1 -> [| 0.0; 3.0 |]
      | 1, 0 -> [| 3.0; 0.0 |]
      | _ -> [| 3.0; 3.0 |])

let chicken =
  Normal_form.create
    ~action_names:[| [| "dare"; "chicken" |]; [| "dare"; "chicken" |] |]
    ~actions:[| 2; 2 |]
    (fun p ->
      match (p.(0), p.(1)) with
      | 0, 0 -> [| 0.0; 0.0 |]
      | 0, 1 -> [| 7.0; 2.0 |]
      | 1, 0 -> [| 2.0; 7.0 |]
      | _ -> [| 6.0; 6.0 |])
