open Parsetree

(* {1 Path scoping} *)

let in_dir dir file =
  String.length file > String.length dir && String.sub file 0 (String.length dir) = dir

let is_lib f = in_dir "lib/" f
let is_bench f = in_dir "bench/" f

(* The sanctioned sites, carved out in code rather than via attributes. *)
let prng_site f = f = "lib/util/prng.ml" || f = "lib/util/prng.mli"
let toplevel_state_site f = in_dir "lib/util/" f || in_dir "lib/obs/" f
let domain_site f = f = "lib/util/pool.ml" || f = "lib/obs/obs.ml"
let out_site f = f = "lib/util/out.ml"

(* GC statistics depend on allocation history, heap policy and domain
   count — reading them anywhere but the Obs probe layer smuggles
   nondeterminism past D002. *)
let gc_site f = in_dir "lib/obs/" f

(* The flat numeric kernels: the only modules allowed to touch Bigarray
   storage directly. Everyone else goes through their typed APIs. *)
let bigarray_site f =
  List.mem f
    [ "lib/game/normal_form.ml"; "lib/game/normal_form.mli"; "lib/game/nash.ml";
      "lib/game/learning.ml"; "lib/lp/simplex.ml";
      (* The struct-of-arrays agent store and the simulator kernels built
         directly on its columns (PR 8). *)
      "lib/agents/soa.ml"; "lib/agents/soa.mli"; "lib/scrip/scrip_soa.ml";
      "lib/p2p/gnutella_soa.ml" ]

(* {1 Longident helpers} *)

let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply (a, b) -> flatten a @ flatten b

(* [Stdlib.Random.int] and [Random.int] are the same thing. *)
let path lid = match flatten lid with "Stdlib" :: (_ :: _ as rest) -> rest | l -> l

(* Stdlib submodules (plus Unix): opening one shadows pervasive names. *)
let shadowing_modules =
  [ "Stdlib"; "Arg"; "Array"; "ArrayLabels"; "Atomic"; "Bigarray"; "Bool"; "Buffer"; "Bytes";
    "BytesLabels"; "Char"; "Complex"; "Condition"; "Domain"; "Digest"; "Either"; "Filename";
    "Float"; "Format"; "Fun"; "Gc"; "Hashtbl"; "In_channel"; "Int"; "Int32"; "Int64"; "Lazy";
    "Lexing"; "List"; "ListLabels"; "Map"; "Marshal"; "MoreLabels"; "Mutex"; "Nativeint"; "Obj";
    "Option"; "Out_channel"; "Printexc"; "Printf"; "Queue"; "Random"; "Result"; "Scanf"; "Seq";
    "Set"; "Stack"; "StdLabels"; "String"; "StringLabels"; "Sys"; "Uchar"; "Unit"; "Unix"; "Weak" ]

let stdout_printers =
  [ "print_string"; "print_endline"; "print_newline"; "print_int"; "print_float"; "print_char";
    "print_bytes" ]

(* {1 The per-occurrence checks} *)

let loc_finding ~rule ~file (loc : Location.t) msg =
  Finding.v ~rule ~file ~line:loc.loc_start.pos_lnum
    ~col:(loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
    msg

(* A value identifier occurrence ([Random.int], [print_string], ...). *)
let check_ident ~file lid loc =
  let f rule msg = Some (loc_finding ~rule ~file loc msg) in
  match path lid with
  | "Random" :: _ when not (prng_site file) ->
    f "D001"
      (Printf.sprintf "use of %s: randomness must come from an explicit Bn_util.Prng seed"
         (String.concat "." (flatten lid)))
  | ([ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ]) when not (is_bench file)
    ->
    f "D002"
      (Printf.sprintf "wall-clock read %s outside bench/" (String.concat "." (flatten lid)))
  | [ "Hashtbl"; ("iter" | "fold") ] | [ "MoreLabels"; "Hashtbl"; ("iter" | "fold") ] ->
    f "D003"
      (Printf.sprintf
         "%s traverses in bucket order; use Bn_util.Tbl.sorted_bindings (or keep the result \
          from escaping)"
         (String.concat "." (flatten lid)))
  | "Marshal" :: _ -> f "D004" "Marshal is representation-dependent and banned"
  | [ "Obj"; "magic" ] -> f "D005" "Obj.magic defeats the type system and the determinism audit"
  | "Gc" :: _ when not (gc_site file) ->
    f "P005"
      (Printf.sprintf "%s outside lib/obs: GC stats are nondeterministic; use the Obs GC probes"
         (String.concat "." (flatten lid)))
  | ("Domain" | "Atomic") :: _ when not (domain_site file) ->
    f "P002"
      (Printf.sprintf "%s outside Bn_util.Pool / Bn_obs.Obs — raw parallelism breaks the \
                       deterministic-schedule contract"
         (String.concat "." (flatten lid)))
  | "Bigarray" :: _ when is_lib file && not (bigarray_site file) ->
    f "P004"
      (Printf.sprintf "%s outside the flat numeric kernels — Bigarray storage is confined to \
                       the flat kernels (Normal_form/Nash/Learning/Simplex/Soa and the SoA \
                       simulators)"
         (String.concat "." (flatten lid)))
  | [ p ] when List.mem p stdout_printers && is_lib file && not (out_site file) ->
    f "P003" (Printf.sprintf "direct %s in lib/: render through Bn_util.Out sinks" p)
  | ([ "Printf"; "printf" ] | [ "Format"; ("printf" | "print_string" | "print_newline") ])
    when is_lib file && not (out_site file) ->
    f "P003"
      (Printf.sprintf "direct %s in lib/: render through Bn_util.Out sinks"
         (String.concat "." (flatten lid)))
  | _ -> None

(* A module identifier occurrence: alias, functor argument or open of a
   banned module is as bad as calling into it. *)
let check_module_ident ~file lid loc =
  let f rule msg = Some (loc_finding ~rule ~file loc msg) in
  match path lid with
  | "Random" :: _ when not (prng_site file) ->
    f "D001" "module Random: randomness must come from an explicit Bn_util.Prng seed"
  | "Marshal" :: _ -> f "D004" "Marshal is representation-dependent and banned"
  | "Gc" :: _ when not (gc_site file) ->
    f "P005" "module Gc outside lib/obs: GC stats are nondeterministic; use the Obs GC probes"
  | ("Domain" | "Atomic") :: _ when not (domain_site file) ->
    f "P002" "module Domain/Atomic outside Bn_util.Pool / Bn_obs.Obs"
  | "Bigarray" :: _ when is_lib file && not (bigarray_site file) ->
    f "P004"
      "module Bigarray outside the flat numeric kernels (Normal_form/Nash/Learning/Simplex/Soa \
       and the SoA simulators)"
  | _ -> None

let check_open ~file lid loc =
  match path lid with
  | [ m ] when List.mem m shadowing_modules ->
    Some
      (loc_finding ~rule:"H002" ~file loc
         (Printf.sprintf "open %s shadows Stdlib names; use qualified access" m))
  | _ -> None

(* {1 P001: structure-level mutable state} *)

let mutable_makers =
  [ [ "ref" ]; [ "Hashtbl"; "create" ]; [ "Array"; "make" ]; [ "Array"; "create_float" ];
    [ "Array"; "make_matrix" ]; [ "Bytes"; "create" ]; [ "Bytes"; "make" ]; [ "Buffer"; "create" ];
    [ "Queue"; "create" ]; [ "Stack"; "create" ]; [ "Atomic"; "make" ];
    [ "Domain"; "DLS"; "new_key" ] ]

let rec peel e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_lazy e -> peel e
  | _ -> e

let mutable_maker e =
  match (peel e).pexp_desc with
  | Pexp_apply (head, _) -> (
    match (peel head).pexp_desc with
    | Pexp_ident { txt; _ } when List.mem (path txt) mutable_makers ->
      Some (String.concat "." (flatten txt))
    | _ -> None)
  | _ -> None

(* Structure-level bindings only: a [ref] inside a function body is fine,
   a [ref] bound at module level is shared state. Recurses into
   sub-modules, which are also structure level. *)
let rec toplevel_state ~file acc items =
  List.fold_left
    (fun acc item ->
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
        List.fold_left
          (fun acc vb ->
            match mutable_maker vb.pvb_expr with
            | Some maker when not (toplevel_state_site file) ->
              loc_finding ~rule:"P001" ~file vb.pvb_loc
                (Printf.sprintf
                   "top-level mutable state (%s) outside lib/util and lib/obs — thread it or \
                    use an Obs counter"
                   maker)
              :: acc
            | _ -> acc)
          acc bindings
      | Pstr_module { pmb_expr; _ } -> toplevel_state_mod ~file acc pmb_expr
      | Pstr_recmodule mbs ->
        List.fold_left (fun acc mb -> toplevel_state_mod ~file acc mb.pmb_expr) acc mbs
      | Pstr_include { pincl_mod; _ } -> toplevel_state_mod ~file acc pincl_mod
      | _ -> acc)
    acc items

and toplevel_state_mod ~file acc me =
  match me.pmod_desc with
  | Pmod_structure items -> toplevel_state ~file acc items
  | Pmod_functor (_, body) -> toplevel_state_mod ~file acc body
  | Pmod_constraint (me, _) -> toplevel_state_mod ~file acc me
  | _ -> acc

(* {1 Drivers} *)

let iterator ~file acc =
  let super = Ast_iterator.default_iterator in
  let push = function Some f -> acc := f :: !acc | None -> () in
  let expr this e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> push (check_ident ~file txt e.pexp_loc)
    | _ -> ());
    super.expr this e
  in
  let module_expr this me =
    (match me.pmod_desc with
    | Pmod_ident { txt; _ } -> push (check_module_ident ~file txt me.pmod_loc)
    | _ -> ());
    super.module_expr this me
  in
  (* H002 looks at file-level opens only: a local [M.(...)] or
     [let open M in] is scoped tightly enough to read, a structure-level
     open rebinds pervasives for the whole file. *)
  let structure_item this item =
    (match item.pstr_desc with
    | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; popen_loc; _ } ->
      push (check_open ~file txt popen_loc)
    | _ -> ());
    super.structure_item this item
  in
  let signature_item this item =
    (match item.psig_desc with
    | Psig_open { popen_expr = { txt; _ }; popen_loc; _ } -> push (check_open ~file txt popen_loc)
    | _ -> ());
    super.signature_item this item
  in
  { super with expr; module_expr; structure_item; signature_item }

let check_structure ~file str =
  let acc = ref [] in
  let it = iterator ~file acc in
  it.structure it str;
  List.rev_append !acc (List.rev (toplevel_state ~file [] str))

let check_signature ~file sg =
  let acc = ref [] in
  let it = iterator ~file acc in
  it.signature it sg;
  List.rev !acc
