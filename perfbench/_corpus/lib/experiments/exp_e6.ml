(** E6 — Example 3.1, the primality game.

    Expected utility of each machine as the input bit-length grows, under a
    per-modular-multiplication charge. Classical Nash says "answer
    correctly"; the computational equilibrium switches to "play safe" past
    a crossover bit-length. *)

module B = Beyond_nash
module P = B.Primality

let name = "E6"
let title = "primality game: guess vs safe under computation costs"

let run ?jobs:_ () =
  let cost = 0.05 in
  let rng = B.Prng.create 4242 in
  let tab =
    B.Tab.create
      ~title:(Printf.sprintf "%s (cost/op = %.2f)" title cost)
      [ "bits"; "solve"; "safe"; "guess-prime"; "guess-composite"; "equilibrium" ]
  in
  List.iter
    (fun bits ->
      let spec = P.default_spec ~bits ~cost_per_op:cost in
      let us = P.utilities (B.Prng.split rng (2 * bits)) spec in
      let eq = P.machine_names.(P.equilibrium_choice (B.Prng.split rng (2 * bits + 1)) spec) in
      B.Tab.add_row tab
        (string_of_int bits
        :: List.map (fun name -> B.Tab.fmt_float (List.assoc name us))
             [ "solve"; "safe"; "guess-prime"; "guess-composite" ]
        @ [ eq ]))
    [ 6; 8; 12; 16; 20; 24; 28; 32; 40 ];
  B.Tab.print tab;
  (match P.crossover_bits rng ~cost_per_op:cost with
  | Some b -> B.Out.printf "crossover: safe overtakes solve at %d bits\n" b
  | None -> B.Out.print_endline "no crossover in range");
  (* Cost sweep: the crossover moves with the price of computation. *)
  let tab2 = B.Tab.create ~title:"crossover bit-length vs cost per operation" [ "cost/op"; "crossover bits" ] in
  List.iter
    (fun c ->
      let b =
        match P.crossover_bits rng ~cost_per_op:c with
        | Some b -> string_of_int b
        | None -> "> 48"
      in
      B.Tab.add_row tab2 [ B.Tab.fmt_float c; b ])
    [ 0.01; 0.02; 0.05; 0.1; 0.2 ];
  B.Tab.print tab2
