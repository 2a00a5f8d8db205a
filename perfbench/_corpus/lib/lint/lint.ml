type report = {
  findings : Finding.t list;
  files_scanned : int;
  dune_files : int;
  graph : Callgraph.t;
  effects : Effects.table;
}

exception Invalid_root of string

(* {1 Parsing} *)

let parse_lexbuf ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  lexbuf

type parsed =
  | Impl of Parsetree.structure
  | Intf of Parsetree.signature
  | Broken of string

let parse_file ~file source =
  match
    if Filename.check_suffix file ".mli" then Intf (Parse.interface (parse_lexbuf ~file source))
    else Impl (Parse.implementation (parse_lexbuf ~file source))
  with
  | parsed -> parsed
  | exception Syntaxerr.Error _ -> Broken "syntax error"
  | exception exn -> Broken (Printexc.to_string exn)

(* Per-file rule findings + the file's allow attributes, not yet applied
   (tree-level findings must be suppressible from the same file). *)
let check_parsed ~file = function
  | Impl str -> (Rules.check_structure ~file str, Allow.scan_structure str)
  | Intf sg -> (Rules.check_signature ~file sg, Allow.scan_signature sg)
  | Broken msg ->
    ([ Finding.v ~rule:"E000" ~file ~line:1 ~col:0 (Printf.sprintf "parse failed: %s" msg) ], [])

let lint_source ~file source =
  let findings, allows = check_parsed ~file (parse_file ~file source) in
  List.sort Finding.compare (Allow.apply ~file allows findings)

(* {1 Tree walking} *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let roots = [ "lib"; "bin"; "bench"; "test" ]

(* All regular files under [root]/{lib,bin,bench,test}, repo-relative with
   '/' separators, sorted — directory enumeration order must never reach
   the report. Skips dot- and _build-style directories. *)
let walk ~root =
  let skip name = name = "" || name.[0] = '.' || name.[0] = '_' in
  let rec go rel acc =
    let abs = Filename.concat root rel in
    if Sys.is_directory abs then
      Array.fold_left
        (fun acc name -> if skip name then acc else go (rel ^ "/" ^ name) acc)
        acc
        (let entries = Sys.readdir abs in
         Array.sort compare entries;
         entries)
    else rel :: acc
  in
  List.rev
    (List.fold_left
       (fun acc dir ->
         if Sys.file_exists (Filename.concat root dir) then go dir acc else acc)
       [] roots)

let find_root ?start () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (match start with Some d -> d | None -> Sys.getcwd ())

let check_root root =
  if not (Sys.file_exists root && Sys.is_directory root) then raise (Invalid_root root)

(* One pass over the tree: read and parse everything exactly once; the
   per-file rules and all whole-program analyses share the ASTs. *)
let load ~root =
  check_root root;
  let files = walk ~root in
  let sources =
    List.filter (fun f -> Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli") files
  in
  let dunes = List.filter (fun f -> Filename.basename f = "dune" && Rules.in_dir "lib/" f) files in
  let parsed = List.map (fun f -> (f, parse_file ~file:f (read_file (Filename.concat root f)))) sources in
  let libs =
    List.concat_map
      (fun f -> Layering.libs_of_dune ~file:f (read_file (Filename.concat root f)))
      dunes
  in
  (sources, dunes, parsed, libs)

let mls_of parsed =
  List.filter_map
    (fun (f, p) ->
      match p with Impl str when Filename.check_suffix f ".ml" -> Some (f, str) | _ -> None)
    parsed

let parse_mls ~root =
  let _, _, parsed, libs = load ~root in
  (List.map (fun (l : Layering.lib) -> l.lib_name) libs, mls_of parsed)

let run ~root =
  let sources, dunes, parsed, libs = load ~root in
  (* H001: every lib/ implementation needs an interface. *)
  let missing_mli f =
    if Rules.in_dir "lib/" f && Filename.check_suffix f ".ml" && not (List.mem (f ^ "i") sources)
    then
      Some
        (Finding.v ~rule:"H001" ~file:f ~line:1 ~col:0
           "lib/ module without an .mli: exports are unreviewed")
    else None
  in
  (* Whole-program analyses over the parsed tree. *)
  let mls = mls_of parsed in
  let graph = Callgraph.build ~libs:(List.map (fun (l : Layering.lib) -> l.lib_name) libs) mls in
  let effects, effect_findings = Effects.infer graph in
  let race_findings = Races.check graph effects mls in
  let tree = effect_findings @ race_findings in
  (* Tree-wide findings are merged into their file's batch before the
     file's allows apply, so E/R suppressions live next to the code they
     cover and unused ones trip the A001 audit like any other. *)
  let per_file =
    List.concat_map
      (fun (f, p) ->
        let findings, allows = check_parsed ~file:f p in
        let findings = match missing_mli f with Some h -> findings @ [ h ] | None -> findings in
        let findings = findings @ List.filter (fun (fd : Finding.t) -> fd.file = f) tree in
        Allow.apply ~file:f allows findings)
      parsed
  in
  {
    findings = List.sort Finding.compare (per_file @ Layering.check libs);
    files_scanned = List.length sources;
    dune_files = List.length dunes;
    graph;
    effects;
  }

let unsuppressed r = List.filter (fun (f : Finding.t) -> f.suppressed = None) r.findings

(* {1 Rendering} *)

let render_human r =
  let b = Buffer.create 1024 in
  let bad = unsuppressed r in
  List.iter
    (fun f ->
      Buffer.add_string b (Finding.to_string f);
      Buffer.add_char b '\n')
    bad;
  let suppressed = List.length r.findings - List.length bad in
  Buffer.add_string b
    (Printf.sprintf "bn-lint: %d finding%s (%d suppressed) in %d files, %d dune files\n"
       (List.length bad)
       (if List.length bad = 1 then "" else "s")
       suppressed r.files_scanned r.dune_files);
  Buffer.contents b

let json_escape = Callgraph.json_escape

let to_json r =
  let b = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let bad = unsuppressed r in
  let by_rule =
    List.filter_map
      (fun (ri : Finding.rule_info) ->
        match List.length (List.filter (fun (f : Finding.t) -> f.rule = ri.id) bad) with
        | 0 -> None
        | n -> Some (ri.id, n))
      Finding.registry
  in
  p "{\n";
  p "  \"schema\": \"bn-lint/1\",\n";
  p "  \"summary\": {\n";
  p "    \"files\": %d,\n" r.files_scanned;
  p "    \"dune_files\": %d,\n" r.dune_files;
  p "    \"unsuppressed\": %d,\n" (List.length bad);
  p "    \"suppressed\": %d,\n" (List.length r.findings - List.length bad);
  p "    \"by_rule\": {%s}\n"
    (String.concat ", " (List.map (fun (id, n) -> Printf.sprintf "\"%s\": %d" id n) by_rule));
  p "  },\n";
  p "  \"findings\": [";
  List.iteri
    (fun i (f : Finding.t) ->
      p "%s\n    { \"rule\": \"%s\", \"severity\": \"%s\", \"file\": \"%s\", \"line\": %d, \
         \"col\": %d, \"message\": \"%s\", \"allowed\": %b%s }"
        (if i = 0 then "" else ",")
        f.rule
        (Finding.severity_to_string f.severity)
        (json_escape f.file) f.line f.col (json_escape f.message) (f.suppressed <> None)
        (match f.suppressed with
        | None -> ""
        | Some reason -> Printf.sprintf ", \"reason\": \"%s\"" (json_escape reason)))
    r.findings;
  p "\n  ]\n}\n";
  Buffer.contents b

let callgraph_json r = Callgraph.to_json r.graph
let effects_json r = Effects.to_json r.graph r.effects

let rules_table () =
  let b = Buffer.create 512 in
  List.iter
    (fun (ri : Finding.rule_info) ->
      Buffer.add_string b
        (Printf.sprintf "%s  %-7s  %s\n" ri.id
           (Finding.severity_to_string ri.rule_severity)
           ri.summary))
    Finding.registry;
  Buffer.contents b
