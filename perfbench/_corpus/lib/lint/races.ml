open Parsetree

(* {1 Parallel-region race detection}

   A parallel region is a closure literal passed to one of the Pool
   entry points (map / map_array / map_array_steal / iter_grid /
   find_first) — the SoA simulator phases are themselves Pool.iter_grid
   calls, so they are covered by the same detection. Inside such a
   closure the Pool contract allows: reads of anything, writes to state
   created inside the closure, indexed writes whose index derives from
   the chunk/shard parameter (the canonical [results.(i) <- …] from the
   task for index [i]), Exchange posts, and Prng streams derived via
   [Prng.split]. Everything else is a schedule-dependent write:

   - R001 — write to captured mutable state (a ref, a mutable field, a
     Hashtbl, an array/Bigarray cell whose index is not derived from
     the chunk parameter), directly or through a call to a function
     whose inferred effects include [global_mut];
   - R002 — drawing from a captured Prng state (the draw order then
     depends on the schedule); [Prng.split base i] is the sanctioned
     derivation;
   - R003 — SoA column write whose index is not derived from the
     shard-local range: cross-shard writes must go through the batched
     Exchange API. *)

let pool_ops = [ "map"; "map_array"; "map_array_steal"; "iter_grid"; "find_first" ]

(* Sanctioned machinery a parallel closure may call even though its
   effect signature says [global_mut]: the pool itself (nested
   parallelism), the Out sinks and the Obs layer are all domain-sharded
   by construction. *)
let sanctioned_callee file =
  file = "lib/util/pool.ml" || file = "lib/util/out.ml"
  || (String.length file >= 8 && String.sub file 0 8 = "lib/obs/")

let rec peel e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> peel e
  | _ -> e

let ident_path e =
  match (peel e).pexp_desc with Pexp_ident { txt; _ } -> Some (Scope.path txt) | _ -> None

(* Is [Pool.<op>] (or [B.Pool.<op>], [Bn_util.Pool.<op>]) being applied? *)
let pool_entry p =
  let rec go = function
    | "Pool" :: op :: _ when List.mem op pool_ops -> true
    | _ :: rest -> go rest
    | [] -> false
  in
  go p

(* The base of an access path: [t.tallies] -> [t]; used to decide
   whether the written structure is captured. *)
let rec base_expr e =
  match (peel e).pexp_desc with Pexp_field (e, _) -> base_expr e | _ -> peel e

(* Captured means: not bound inside the closure. An unqualified name in
   the closure env is local; everything else (outer locals, parameters
   of the enclosing function, module-level state) is shared with the
   other chunks. *)
let captured ~env e =
  match (base_expr e).pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match Scope.path txt with [ x ] -> not (Scope.mem x env) | _ -> true)
  | _ -> false

let loc_finding ~rule ~file (loc : Location.t) msg =
  Finding.v ~rule ~file ~line:loc.loc_start.pos_lnum
    ~col:(loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
    msg

let soa_col_write p =
  match List.rev p with
  | op :: col :: _ when List.mem col [ "F64"; "I32"; "I8" ] ->
    (match op with "set" | "uset" -> Some `Indexed | "fill" -> Some `Whole | _ -> None)
  | _ -> None

let prng_draws =
  [ "bits64"; "int"; "float"; "bool"; "pick"; "shuffle"; "exponential"; "geometric" ]

let prng_draw p =
  match List.rev p with
  | op :: rest -> List.mem "Prng" rest && List.mem op prng_draws
  | [] -> false

let describe e =
  match ident_path e with Some p -> String.concat "." p | None -> "<expr>"

(* {1 One closure} *)

let check_closure graph eff ~file ~scope closure acc =
  let push f = acc := f :: !acc in
  Scope.iter_expr ~env:Scope.empty
    (fun ~env e ->
      match e.pexp_desc with
      | Pexp_apply (head, args) -> (
        let argv = List.map snd args in
        match ident_path head with
        | Some [ (":=" | "incr" | "decr") as op ] -> (
          match argv with
          | target :: _ when captured ~env target ->
            push
              (loc_finding ~rule:"R001" ~file e.pexp_loc
                 (Printf.sprintf
                    "(%s) on captured ref %s inside a parallel closure — every chunk races on \
                     it; make it chunk-local or write a per-index slot"
                    op (describe target)))
          | _ -> ())
        | Some [ "Hashtbl"; ("add" | "replace" | "remove" | "reset" | "clear") ] -> (
          match argv with
          | target :: _ when captured ~env target ->
            push
              (loc_finding ~rule:"R001" ~file e.pexp_loc
                 (Printf.sprintf
                    "Hashtbl mutation of captured %s inside a parallel closure — hash tables \
                     have no per-chunk write discipline"
                    (describe target)))
          | _ -> ())
        | Some [ ("Array" | "Bytes"); ("set" | "unsafe_set") ] -> (
          match argv with
          | target :: idx :: _ when captured ~env target && not (Scope.mentions env idx) ->
            push
              (loc_finding ~rule:"R001" ~file e.pexp_loc
                 (Printf.sprintf
                    "write to captured %s at an index not derived from the chunk parameter — \
                     chunks may collide on the same slot"
                    (describe target)))
          | _ -> ())
        | Some [ ("Array" | "Bytes"); ("fill" | "blit") ] -> (
          match argv with
          | target :: _ when captured ~env target ->
            push
              (loc_finding ~rule:"R001" ~file e.pexp_loc
                 (Printf.sprintf
                    "bulk write to captured %s inside a parallel closure — overlaps every \
                     other chunk's range"
                    (describe target)))
          | _ -> ())
        | Some ("Bigarray" :: rest)
          when (match List.rev rest with
               | ("set" | "unsafe_set" | "fill" | "blit") :: _ -> true
               | _ -> false) -> (
          match argv with
          | target :: idx :: _ when captured ~env target && not (Scope.mentions env idx) ->
            push
              (loc_finding ~rule:"R001" ~file e.pexp_loc
                 (Printf.sprintf
                    "Bigarray store to captured %s at an index not derived from the chunk \
                     parameter"
                    (describe target)))
          | _ -> ())
        | Some p when soa_col_write p <> None -> (
          match (soa_col_write p, argv) with
          | Some `Whole, target :: _ ->
            push
              (loc_finding ~rule:"R003" ~file e.pexp_loc
                 (Printf.sprintf
                    "whole-column SoA write (%s) inside a parallel closure — it spans every \
                     shard; do it between phases or route per-agent events through \
                     Soa.Exchange"
                    (describe target)))
          | Some `Indexed, target :: idx :: _ when not (Scope.mentions env idx) ->
            push
              (loc_finding ~rule:"R003" ~file e.pexp_loc
                 (Printf.sprintf
                    "SoA column write to %s at an index not derived from the shard-local \
                     range — cross-shard writes must go through the batched Soa.Exchange API"
                    (describe target)))
          | _ -> ())
        | Some p when prng_draw p -> (
          match argv with
          | rng :: _ when captured ~env rng ->
            push
              (loc_finding ~rule:"R002" ~file e.pexp_loc
                 (Printf.sprintf
                    "Prng draw from captured state %s inside a parallel closure — the draw \
                     order becomes schedule-dependent; derive a per-index stream with \
                     Prng.split"
                    (describe rng)))
          | _ -> ())
        | Some p -> (
          (* A helper call that smuggles a shared-state write. *)
          match Callgraph.resolve graph ~file ~scope ~env p with
          | Some callee
            when Effects.has_global_mut eff callee.Callgraph.id
                 && not (sanctioned_callee callee.Callgraph.file) ->
            push
              (loc_finding ~rule:"R001" ~file e.pexp_loc
                 (Printf.sprintf
                    "call to %s, whose inferred effects include global_mut — it writes \
                     structure-level mutable state from inside a parallel closure"
                    callee.Callgraph.id))
          | _ -> ())
        | None -> ())
      | Pexp_setfield (target, fld, _) when captured ~env target ->
        push
          (loc_finding ~rule:"R001" ~file e.pexp_loc
             (Printf.sprintf
                "mutable-field write %s.%s <- … on captured state inside a parallel closure"
                (describe target)
                (String.concat "." (Scope.flatten fld.txt))))
      | _ -> ())
    closure

(* {1 Tree walk} *)

let check graph eff mls =
  let acc = ref [] in
  List.iter
    (fun (file, _str) ->
      if file <> "lib/util/pool.ml" then
        List.iter
          (fun (d : Callgraph.def) ->
            if d.file = file then
              Scope.iter_expr ~env:Scope.empty
                (fun ~env:_ e ->
                  match e.pexp_desc with
                  | Pexp_apply (head, args) when
                      (match ident_path head with
                      | Some p -> pool_entry p
                      | None -> false) ->
                    List.iter
                      (fun (_, a) ->
                        match (peel a).pexp_desc with
                        | Pexp_fun _ | Pexp_function _ ->
                          check_closure graph eff ~file ~scope:d.scope (peel a) acc
                        | _ -> ())
                      args
                  | _ -> ())
                d.body)
          (Callgraph.defs graph))
    mls;
  List.sort Finding.compare !acc
