type lib = { lib_name : string; deps : string list; dune_file : string; line : int }

(* {1 A minimal s-expression reader — just enough for dune files} *)

type sexp = Atom of string * int (* line *) | List of sexp list

let parse_sexps content =
  let n = String.length content in
  let line = ref 1 in
  let pos = ref 0 in
  let peek () = if !pos < n then Some content.[!pos] else None in
  let advance () =
    (if content.[!pos] = '\n' then incr line);
    incr pos
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | Some ';' ->
      while peek () <> None && content.[!pos] <> '\n' do
        advance ()
      done;
      skip_ws ()
    | _ -> ()
  in
  let atom () =
    let start = !pos in
    let ln = !line in
    while
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' | '"') | None -> false
      | Some _ -> true
    do
      advance ()
    done;
    Atom (String.sub content start (!pos - start), ln)
  in
  let quoted () =
    let ln = !line in
    advance () (* opening quote *);
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> ()
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some c ->
          Buffer.add_char b c;
          advance ()
        | None -> ());
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Atom (Buffer.contents b, ln)
  in
  let rec sexp () =
    skip_ws ();
    match peek () with
    | None -> None
    | Some '(' ->
      advance ();
      let items = ref [] in
      let rec go () =
        skip_ws ();
        match peek () with
        | None -> ()
        | Some ')' -> advance ()
        | Some _ -> (
          match sexp () with
          | Some s ->
            items := s :: !items;
            go ()
          | None -> ())
      in
      go ();
      Some (List (List.rev !items))
    | Some ')' ->
      advance ();
      sexp ()
    | Some '"' -> Some (quoted ())
    | Some _ -> Some (atom ())
  in
  let rec all acc = match sexp () with Some s -> all (s :: acc) | None -> List.rev acc in
  all []

(* {1 Library stanzas} *)

let field name = function
  | List (Atom (a, _) :: rest) when a = name -> Some rest
  | _ -> None

let atoms items = List.filter_map (function Atom (a, _) -> Some a | List _ -> None) items

let libs_of_dune ~file content =
  List.filter_map
    (function
      | List (Atom ("library", _) :: fields) ->
        let find name = List.find_map (field name) fields in
        (match find "name" with
        | Some (Atom (lib_name, line) :: _) ->
          let deps = match find "libraries" with Some items -> atoms items | None -> [] in
          Some { lib_name; deps; dune_file = file; line }
        | _ -> None)
      | _ -> None)
    (parse_sexps content)

(* {1 The layering checks} *)

let check libs =
  let internal = List.map (fun l -> l.lib_name) libs in
  (* A dep counts as in-tree if it is defined in the scanned tree or just
     follows the repo naming scheme — so a partial tree (test fixtures)
     still layers correctly. *)
  let in_tree d =
    List.mem d internal || d = "beyond_nash"
    || (String.length d > 3 && String.sub d 0 3 = "bn_")
  in
  let internal_deps l = List.filter in_tree l.deps in
  let finding l msg = Finding.v ~rule:"H003" ~file:l.dune_file ~line:l.line ~col:0 msg in
  let bottom =
    List.concat_map
      (fun l ->
        match l.lib_name with
        | "bn_obs" ->
          List.map
            (fun d ->
              finding l
                (Printf.sprintf
                   "bn_obs must sit below every in-tree library but depends on %s" d))
            (internal_deps l)
        | "bn_util" ->
          List.filter_map
            (fun d ->
              if d = "bn_obs" then None
              else
                Some
                  (finding l
                     (Printf.sprintf
                        "bn_util may depend only on bn_obs in-tree but depends on %s" d)))
            (internal_deps l)
        | _ -> [])
      libs
  in
  (* Cycle detection over the in-tree graph: iterative DFS with a path. *)
  let cycles =
    let visited = ref [] in
    let rec dfs path l =
      if List.mem l.lib_name path then
        [ finding l
            (Printf.sprintf "dependency cycle: %s"
               (String.concat " -> " (List.rev (l.lib_name :: path)))) ]
      else if List.mem l.lib_name !visited then []
      else begin
        visited := l.lib_name :: !visited;
        List.concat_map
          (fun d ->
            match List.find_opt (fun l' -> l'.lib_name = d) libs with
            | Some l' -> dfs (l.lib_name :: path) l'
            | None -> [])
          (internal_deps l)
      end
    in
    List.concat_map (dfs []) libs
  in
  bottom @ cycles
