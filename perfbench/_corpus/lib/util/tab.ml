type t = {
  title : string;
  headers : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title headers = { title; headers; rows = [] }

let add_row t row = t.rows <- row :: t.rows

let fmt_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.4f" x

let add_float_row t label xs = add_row t (label :: List.map fmt_float xs)

let render t =
  let rows = List.rev t.rows in
  let ncols =
    List.fold_left (fun acc r -> max acc (List.length r)) (List.length t.headers) rows
  in
  let pad row = row @ List.init (ncols - List.length row) (fun _ -> "") in
  let all = pad t.headers :: List.map pad rows in
  let widths = Array.make ncols 0 in
  let note_widths row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter note_widths all;
  let render_row row =
    let cells = List.mapi (fun i cell -> Printf.sprintf "%-*s" widths.(i) cell) row in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let rule =
    "|"
    ^ String.concat "|" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "|"
  in
  let body =
    match all with
    | header :: data -> render_row header :: rule :: List.map render_row data
    | [] -> []
  in
  String.concat "\n" (("== " ^ t.title ^ " ==") :: body)

let print t =
  Out.print_string (render t);
  Out.print_newline ();
  Out.print_newline ()
