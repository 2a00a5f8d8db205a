(* obsdiff — compare two metrics/bench JSON artifacts and exit nonzero
   on regression. Zero dependencies beyond Bn_obs (no cmdliner): this
   binary is the CI gate and must stay trivially relocatable.

   usage: obsdiff [options] REF.json NEW.json
     --threshold X   fail timing rows whose new/ref ratio exceeds X (default 2.0)
     --rows A,B,...  compare only rows whose name contains one of these
                     substrings; each spec must match (missing = fail)
     --json FILE     also write the obsdiff/1 verdict JSON to FILE
     --quiet         suppress the human verdict on stdout *)

module Obsdiff = Bn_obs.Obsdiff

let usage () =
  prerr_endline
    "usage: obsdiff [--threshold X] [--rows A,B,...] [--json FILE] [--quiet] REF.json NEW.json";
  exit 2

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error msg ->
    Printf.eprintf "obsdiff: %s\n" msg;
    exit 2

let () =
  let threshold = ref 2.0 in
  let rows = ref [] in
  let json_out = ref None in
  let quiet = ref false in
  let positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: x :: rest ->
      (match float_of_string_opt x with
      | Some t when t > 0.0 -> threshold := t
      | _ -> usage ());
      parse rest
    | "--rows" :: x :: rest ->
      rows := !rows @ List.filter (fun s -> s <> "") (String.split_on_char ',' x);
      parse rest
    | "--json" :: x :: rest ->
      json_out := Some x;
      parse rest
    | "--quiet" :: rest ->
      quiet := true;
      parse rest
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
      Printf.eprintf "obsdiff: unknown option %s\n" arg;
      usage ()
    | arg :: rest ->
      positional := arg :: !positional;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let ref_name, new_name =
    match List.rev !positional with [ a; b ] -> (a, b) | _ -> usage ()
  in
  match
    Obsdiff.diff ~threshold:!threshold ~rows:!rows (read_file ref_name) (read_file new_name)
  with
  | Error msg ->
    Printf.eprintf "obsdiff: %s\n" msg;
    exit 2
  | Ok report ->
    Option.iter
      (fun path ->
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (Obsdiff.verdict_json ~ref_name ~new_name report)))
      !json_out;
    if not !quiet then print_string (Obsdiff.render ~ref_name ~new_name report);
    exit (if Obsdiff.ok report then 0 else 1)
