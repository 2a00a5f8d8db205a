open Parsetree

module SMap = Map.Make (String)

(* {1 Definitions}

   A def is a structure-level value binding: [let f …] at the top of a
   file or inside a (possibly nested) named sub-module. Local bindings
   are not defs — the analyses treat them as part of their enclosing
   def's body. *)

type def = {
  id : string;  (* file ^ "#" ^ dotted module-and-value path *)
  file : string;
  path : string list;
  line : int;
  is_fun : bool;
  body : expression;
  scope : string list;  (* enclosing module path within the file *)
}

type edge = { caller : string; callee : string; eline : int; ecol : int }

type t = {
  defs : def list;  (* sorted by id *)
  def_tbl : def SMap.t;
  module_of : string SMap.t;  (* module name -> defining file *)
  aliases : string list SMap.t;  (* file ^ "#" ^ name -> raw target path *)
  wrappers : string list;  (* dune library wrapper modules, e.g. Bn_util *)
  edges : edge list;  (* sorted, deduped *)
  files : int;
}

let dotted path = String.concat "." path
let def_key file path = file ^ "#" ^ dotted path

(* {1 Collecting defs and module aliases} *)

let rec peel_pat p =
  match p.ppat_desc with Ppat_constraint (p, _) -> peel_pat p | _ -> p

let rec is_function e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) -> is_function e
  | _ -> false

let scan_file ~file str =
  let defs = ref [] and aliases = ref [] in
  let rec items mpath is =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match (peel_pat vb.pvb_pat).ppat_desc with
              | Ppat_var { txt; _ } ->
                let path = mpath @ [ txt ] in
                defs :=
                  {
                    id = def_key file path;
                    file;
                    path;
                    line = vb.pvb_loc.loc_start.pos_lnum;
                    is_fun = is_function vb.pvb_expr;
                    body = vb.pvb_expr;
                    scope = mpath;
                  }
                  :: !defs
              | _ -> ())
            vbs
        | Pstr_module mb -> module_binding mpath mb
        | Pstr_recmodule mbs -> List.iter (module_binding mpath) mbs
        | Pstr_include { pincl_mod; _ } -> module_expr mpath pincl_mod
        | _ -> ())
      is
  and module_binding mpath mb =
    match mb.pmb_name.txt with
    | None -> ()
    | Some name -> (
      match mb.pmb_expr.pmod_desc with
      | Pmod_ident { txt; _ } -> aliases := (name, Scope.path txt) :: !aliases
      | _ -> module_expr (mpath @ [ name ]) mb.pmb_expr)
  and module_expr mpath me =
    match me.pmod_desc with
    | Pmod_structure is -> items mpath is
    | Pmod_constraint (me, _) | Pmod_functor (_, me) -> module_expr mpath me
    | _ -> ()
  in
  items [] str;
  (!defs, !aliases)

(* {1 Resolution}

   Best-effort, purely syntactic: a value path occurring in [file] is
   resolved against (innermost first) the enclosing module scope, the
   file's module aliases ([module Soa = Bn_agents.Soa]), and the
   tree-wide capitalized-basename map. Library wrapper modules
   ([Bn_util.Pool.map]) are stripped using the dune library names, and
   alias chains (the [Beyond_nash] facade) are followed with bounded
   fuel. Unresolvable paths — Stdlib, opam libraries, locally bound
   functions — yield no edge. *)

let strip_wrapper g = function
  | m :: (_ :: _ as rest) when List.mem m g.wrappers -> rest
  | p -> p

let rec resolve_in g file path fuel =
  if fuel = 0 || path = [] then None
  else
    match SMap.find_opt (def_key file path) g.def_tbl with
    | Some d -> Some d
    | None -> (
      match path with
      | seg :: rest -> (
        match SMap.find_opt (file ^ "#" ^ seg) g.aliases with
        | Some target -> (
          let target = strip_wrapper g (target @ rest) in
          match target with
          | m :: sub when SMap.mem m g.module_of ->
            resolve_in g (SMap.find m g.module_of) sub (fuel - 1)
          | _ -> resolve_in g file target (fuel - 1))
        | None -> None)
      | [] -> None)

(* Innermost-scope-first prefixes: scope [A; B] tries [A; B], [A], []. *)
let scope_prefixes scope =
  let rec go acc = function [] -> [] :: acc | _ :: _ as l -> go (l :: acc) (List.rev (List.tl (List.rev l))) in
  List.rev (go [] scope)

let resolve g ~file ~scope ~env segs =
  match segs with
  | [ x ] ->
    if Scope.mem x env then None
    else
      List.find_map (fun prefix -> resolve_in g file (prefix @ [ x ]) 8) (scope_prefixes scope)
  | _ :: _ ->
    let segs = strip_wrapper g segs in
    let same_file =
      List.find_map (fun prefix -> resolve_in g file (prefix @ segs) 8) (scope_prefixes scope)
    in
    (match same_file with
    | Some _ as r -> r
    | None -> (
      match segs with
      | m :: (_ :: _ as rest) when SMap.mem m g.module_of ->
        resolve_in g (SMap.find m g.module_of) rest 8
      | _ -> None))
  | [] -> None

(* {1 Building} *)

let in_dir dir file =
  String.length file > String.length dir && String.sub file 0 (String.length dir) = dir

let module_name_of_file f =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename f))

let build ~libs mls =
  let all = List.concat_map (fun (file, str) -> fst (scan_file ~file str)) mls in
  (* Later bindings shadow earlier ones of the same path (rare); keep the
     last so resolution matches what the compiler links. *)
  let def_tbl = List.fold_left (fun m d -> SMap.add d.id d m) SMap.empty all in
  let defs = List.map snd (SMap.bindings def_tbl) in
  let aliases =
    List.fold_left
      (fun m (file, str) ->
        List.fold_left
          (fun m (name, target) -> SMap.add (file ^ "#" ^ name) target m)
          m
          (snd (scan_file ~file str)))
      SMap.empty mls
  in
  (* Capitalized basename -> file; lib/ wins over bin/bench/test, then
     lexicographic — deterministic for the duplicate basenames (main.ml,
     obsdiff.ml). *)
  let module_of =
    List.fold_left
      (fun m (file, _) ->
        let name = module_name_of_file file in
        match SMap.find_opt name m with
        | None -> SMap.add name file m
        | Some old ->
          let better = (in_dir "lib/" file && not (in_dir "lib/" old)) || ((in_dir "lib/" file = in_dir "lib/" old) && file < old) in
          if better then SMap.add name file m else m)
      SMap.empty mls
  in
  let wrappers = List.map String.capitalize_ascii libs in
  let g0 =
    { defs; def_tbl; module_of; aliases; wrappers; edges = []; files = List.length mls }
  in
  (* Edge collection: every ident occurrence in a def body that resolves
     to another def. *)
  let edges = ref [] in
  List.iter
    (fun d ->
      Scope.iter_expr ~env:Scope.empty
        (fun ~env e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
            match resolve g0 ~file:d.file ~scope:d.scope ~env (Scope.path txt) with
            | Some callee when callee.id <> d.id ->
              edges :=
                {
                  caller = d.id;
                  callee = callee.id;
                  eline = e.pexp_loc.loc_start.pos_lnum;
                  ecol = e.pexp_loc.loc_start.pos_cnum - e.pexp_loc.loc_start.pos_bol;
                }
                :: !edges
            | _ -> ())
          | _ -> ())
        d.body)
    defs;
  let edges =
    List.sort_uniq
      (fun a b ->
        Stdlib.compare (a.caller, a.callee, a.eline, a.ecol) (b.caller, b.callee, b.eline, b.ecol))
      !edges
  in
  { g0 with edges }

let defs g = g.defs
let find g id = SMap.find_opt id g.def_tbl
let edges g = g.edges

let calls g =
  List.fold_left
    (fun m e ->
      let cur = Option.value ~default:[] (SMap.find_opt e.caller m) in
      SMap.add e.caller (e.callee :: cur) m)
    SMap.empty g.edges
  |> SMap.map (fun l -> List.sort_uniq Stdlib.compare l)

(* {1 Export} *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json g =
  let b = Buffer.create 65536 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let call_map = calls g in
  p "{\n";
  p "  \"schema\": \"bn-callgraph/1\",\n";
  p "  \"summary\": { \"files\": %d, \"functions\": %d, \"edges\": %d },\n" g.files
    (List.length g.defs) (List.length g.edges);
  p "  \"functions\": [";
  List.iteri
    (fun i d ->
      let callees = Option.value ~default:[] (SMap.find_opt d.id call_map) in
      p "%s\n    { \"id\": \"%s\", \"file\": \"%s\", \"line\": %d, \"fun\": %b, \"calls\": [%s] }"
        (if i = 0 then "" else ",")
        (json_escape d.id) (json_escape d.file) d.line d.is_fun
        (String.concat ", " (List.map (fun c -> Printf.sprintf "\"%s\"" (json_escape c)) callees)))
    g.defs;
  p "\n  ]\n}\n";
  Buffer.contents b
