(* bn-lint driver: run the determinism/purity static-analysis pass over
   the repo and report findings (human on stdout, optionally --json FILE,
   --callgraph-json FILE and --effects FILE for the whole-program views).
   Exit status: 0 clean, 1 unsuppressed findings, 2 usage/setup error. *)

module Lint = Bn_lint.Lint

let () =
  let root = ref None in
  let json = ref None in
  let callgraph = ref None in
  let effects = ref None in
  let quiet = ref false in
  let show_rules = ref false in
  let spec =
    [
      ("--root", Arg.String (fun d -> root := Some d), "DIR Tree to lint (default: nearest ancestor with dune-project)");
      ("--json", Arg.String (fun f -> json := Some f), "FILE Also write the machine-readable report to FILE");
      ("--callgraph-json", Arg.String (fun f -> callgraph := Some f), "FILE Write the bn-callgraph/1 export to FILE");
      ("--effects", Arg.String (fun f -> effects := Some f), "FILE Write the bn-effects/1 inferred-signature export to FILE");
      ("--quiet", Arg.Set quiet, " Print only the summary line");
      ("--rules", Arg.Set show_rules, " List the rules and exit");
    ]
  in
  let usage =
    "lint.exe [--root DIR] [--json FILE] [--callgraph-json FILE] [--effects FILE] [--quiet] \
     [--rules]"
  in
  Arg.parse spec (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a))) usage;
  if !show_rules then begin
    print_string (Lint.rules_table ());
    exit 0
  end;
  let root =
    match !root with
    | Some d -> d
    | None -> (
      match Lint.find_root () with
      | Some d -> d
      | None ->
        prerr_endline "lint: no dune-project found above the current directory (use --root)";
        exit 2)
  in
  let report =
    match Lint.run ~root with
    | report -> report
    | exception Lint.Invalid_root d ->
      Printf.eprintf "lint: root %S does not exist or is not a directory\n" d;
      exit 2
  in
  let write_to file contents =
    let oc = open_out file in
    output_string oc contents;
    close_out oc
  in
  Option.iter (fun file -> write_to file (Lint.to_json report)) !json;
  Option.iter (fun file -> write_to file (Lint.callgraph_json report)) !callgraph;
  Option.iter (fun file -> write_to file (Lint.effects_json report)) !effects;
  let output = Lint.render_human report in
  print_string
    (if !quiet then
       match String.rindex_opt (String.trim output) '\n' with
       | Some i -> String.sub output (i + 1) (String.length output - i - 1)
       | None -> output
     else output);
  exit (if Lint.unsuppressed report = [] then 0 else 1)
