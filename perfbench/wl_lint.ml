(* lint: one op is [Lint.run] then [Lint.to_json] over a frozen snapshot
   of the tree, on a freshly compacted heap as a new [lint.exe] process
   would have. It passes only with zero unsuppressed findings and the
   recorded file count, finding count and report digest. *)

open Harness
module Lint = Bn_lint.Lint

(* The snapshot lives under a directory starting with '_', which both
   dune and the repo's own lint walk skip. *)
let corpus = Filename.concat "perfbench" "_corpus"

(* What the last op saw, for the traced run's [lint.files] and
   [lint.callgraph_edges]. *)
let last_files = ref 0
let last_edges = ref 0

let op ?(probe = off) ~root (e : Recorded.lint) () =
  let r = probe.call "lint.run" (fun () -> Lint.run ~root) in
  let json = probe.call "lint.json" (fun () -> Lint.to_json r) in
  last_files := r.files_scanned;
  last_edges := List.length (Bn_lint.Callgraph.edges r.graph);
  let digest = Digest.to_hex (Digest.string json) in
  match Lint.unsuppressed r with
  | f :: _ as bad -> fail "check" "%d unsuppressed findings, first: %s" (List.length bad) (Bn_lint.Finding.to_string f)
  | [] when r.files_scanned <> e.files -> fail "check" "%d files scanned, recorded %d" r.files_scanned e.files
  | [] when List.length r.findings <> e.findings ->
    fail "check" "%d findings, recorded %d" (List.length r.findings) e.findings
  | [] when digest <> e.json_digest -> fail "check" "to_json digest %s, recorded %s" digest e.json_digest
  | [] -> Pass

(* The interfaces of the snapshot, parsed once: [Lint.parse_mls] hands
   out implementations only, and the traced run times the per-file rules
   over both. *)
let parse_mlis ~root =
  let rec walk rel acc =
    let abs = Filename.concat root rel in
    if Sys.is_directory abs then
      Array.fold_left
        (fun acc name -> if name.[0] = '.' || name.[0] = '_' then acc else walk (rel ^ "/" ^ name) acc)
        acc (Sys.readdir abs)
    else if Filename.check_suffix rel ".mli" then rel :: acc
    else acc
  in
  List.concat_map (fun d -> if Sys.file_exists (Filename.concat root d) then walk d [] else []) [ "lib"; "bin"; "bench"; "test" ]
  |> List.sort compare
  |> List.map (fun file ->
         let ic = open_in_bin (Filename.concat root file) in
         let src = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
         let lexbuf = Lexing.from_string src in
         Lexing.set_filename lexbuf file;
         (file, Parse.interface lexbuf))

(* Lint.run's layers called one by one, each under its own probe. *)
let phases probe ~root mlis =
  let libs, mls = probe.call "lint.parse" (fun () -> Lint.parse_mls ~root) in
  probe.call "lint.rules" (fun () ->
      List.iter (fun (file, str) -> ignore (Bn_lint.Rules.check_structure ~file str)) mls;
      List.iter (fun (file, sg) -> ignore (Bn_lint.Rules.check_signature ~file sg)) mlis);
  let graph = probe.call "lint.callgraph" (fun () -> Bn_lint.Callgraph.build ~libs mls) in
  let effects, _ = probe.call "lint.effects" (fun () -> Bn_lint.Effects.infer graph) in
  ignore (probe.call "lint.races" (fun () -> Bn_lint.Races.check graph effects mls))

let pass_s = 0.29

let known_failures = []

type inputs = { root : string; mlis : (string * Parsetree.signature) list }

let load ~seed:_ =
  if not (Sys.file_exists corpus && Sys.is_directory corpus) then
    failwith (corpus ^ " is missing; run from the root of the repository");
  { root = corpus; mlis = parse_mlis ~root:corpus }

(* Warm-up: three untimed ops. *)
let warm_up x =
  run_passes ~reference:Speed_ref.reference ~passes:3 [| ("lint snapshot", op ~root:x.root Recorded.lint) |]

(* Given a recording probe (the traced run), the phase breakdown runs
   first, untimed, [phase_reps] times, each on a compacted heap like the
   op itself, so that [lint.rest_ms] compares like with like. *)
let phase_reps = 3

let pass probe x =
  if probe != off then
    for _ = 1 to phase_reps do
      Gc.compact ();
      phases probe ~root:x.root x.mlis
    done;
  [| ("lint snapshot", op ~probe ~root:x.root Recorded.lint) |]

(* Per call: each op calls [lint.run] and [lint.json] once; each phase
   is called [phase_reps] times in the traced loop. *)
let layers find (_ : summary) =
  let get name =
    match find name with
    | Some a -> (a.time_s *. 1e3 /. float a.calls, a.words /. 1e6 /. float a.calls)
    | None -> (0., 0.)
  in
  let phase_names = [ "parse"; "rules"; "callgraph"; "effects"; "races" ] in
  let phases = List.map (fun p -> (p, get ("lint." ^ p))) phase_names in
  let run_ms, run_mw = get "lint.run" in
  let rest =
    List.fold_left (fun (ms, mw) (_, (ms', mw')) -> (ms -. ms', mw -. mw')) (run_ms, run_mw) phases
  in
  List.concat_map
    (fun (p, (ms, mw)) -> [ ("lint." ^ p ^ "_ms", ms); ("lint." ^ p ^ "_alloc_mw", mw) ])
    (phases @ [ ("json", get "lint.json"); ("rest", rest) ])
  @ [ ("lint.files", float !last_files); ("lint.callgraph_edges", float !last_edges) ]
