let split_on_any s seps =
  String.split_on_char seps s |> List.filter (fun x -> String.trim x <> "")

let bimatrix spec =
  let rows = String.split_on_char '|' spec in
  let rows = List.filter (fun r -> String.trim r <> "") rows in
  if rows = [] then invalid_arg "Parse.bimatrix: empty specification";
  let parse_cell cell =
    match String.split_on_char ',' (String.trim cell) with
    | [ u1; u2 ] -> (
      match (float_of_string_opt (String.trim u1), float_of_string_opt (String.trim u2)) with
      | Some a, Some b -> (a, b)
      | _ -> invalid_arg (Printf.sprintf "Parse.bimatrix: bad payoff pair %S" cell))
    | _ -> invalid_arg (Printf.sprintf "Parse.bimatrix: cell %S needs exactly two payoffs" cell)
  in
  let parse_row row = List.map parse_cell (split_on_any row ' ') in
  let parsed = List.map parse_row rows in
  let cols =
    match parsed with
    | [] -> 0
    | first :: rest ->
      let c = List.length first in
      if c = 0 then invalid_arg "Parse.bimatrix: empty row";
      List.iter
        (fun r -> if List.length r <> c then invalid_arg "Parse.bimatrix: ragged rows")
        rest;
      c
  in
  let a =
    Array.of_list (List.map (fun row -> Array.of_list (List.map fst row)) parsed)
  in
  let b =
    Array.of_list (List.map (fun row -> Array.of_list (List.map snd row)) parsed)
  in
  ignore cols;
  Normal_form.of_bimatrix a b

let bimatrix_opt spec =
  match bimatrix spec with
  | g -> Some g
  | exception Invalid_argument _ -> None
