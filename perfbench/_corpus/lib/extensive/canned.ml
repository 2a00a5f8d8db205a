open Extensive

let centipede ~rounds =
  if rounds < 1 then invalid_arg "Canned.centipede: rounds >= 1";
  let rec node i =
    if i = rounds then begin
      let v = float_of_int (rounds + 1) in
      Terminal [| v; v |]
    end
    else begin
      let mover = i mod 2 in
      let take_mover = float_of_int (2 + i) and take_other = float_of_int i in
      let payoffs =
        if mover = 0 then [| take_mover; take_other |] else [| take_other; take_mover |]
      in
      Decision
        {
          player = mover;
          info = Printf.sprintf "node%d" i;
          moves = [ ("take", Terminal payoffs); ("pass", node (i + 1)) ];
        }
    end
  in
  create ~n_players:2 (node 0)

let ultimatum ~pie =
  if pie < 1 then invalid_arg "Canned.ultimatum: pie >= 1";
  let respond k =
    Decision
      {
        player = 1;
        info = Printf.sprintf "offer%d" k;
        moves =
          [
            ("accept", Terminal [| float_of_int (pie - k); float_of_int k |]);
            ("reject", Terminal [| 0.0; 0.0 |]);
          ];
      }
  in
  create ~n_players:2
    (Decision
       {
         player = 0;
         info = "proposer";
         moves = List.init (pie + 1) (fun k -> (Printf.sprintf "offer-%d" k, respond k));
       })

let trust ~multiplier =
  if multiplier < 2 then invalid_arg "Canned.trust: multiplier >= 2";
  let m = float_of_int multiplier in
  create ~n_players:2
    (Decision
       {
         player = 0;
         info = "investor";
         moves =
           [
             ("keep", Terminal [| 1.0; 1.0 |]);
             ( "invest",
               Decision
                 {
                   player = 1;
                   info = "trustee";
                   moves =
                     [
                       ("share", Terminal [| m /. 2.0; (m /. 2.0) +. 1.0 |]);
                       ("grab", Terminal [| 0.0; m +. 1.0 |]);
                     ];
                 } );
           ];
       })

let take_the_money = centipede ~rounds:2
