open Parsetree

module SSet = Set.Make (String)

type env = SSet.t

let empty = SSet.empty
let mem = SSet.mem

(* {1 Longident helpers} *)

let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply (a, b) -> flatten a @ flatten b

(* [Stdlib.Random.int] and [Random.int] are the same path. *)
let path lid = match flatten lid with "Stdlib" :: (_ :: _ as rest) -> rest | l -> l

(* {1 Pattern variables} *)

let pat_vars p =
  let acc = ref [] in
  let pat this (p : pattern) =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
    | _ -> ());
    Ast_iterator.default_iterator.pat this p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.pat it p;
  !acc

let add_pat env p = List.fold_left (fun e v -> SSet.add v e) env (pat_vars p)

(* All value identifiers occurring in [e], as normalized paths. Used for
   "does this index expression mention a closure-local binding". *)
let idents e =
  let acc = ref [] in
  let expr this (e : expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> acc := path txt :: !acc
    | _ -> ());
    Ast_iterator.default_iterator.expr this e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !acc

let mentions env e =
  List.exists (function [ x ] -> SSet.mem x env | _ -> false) (idents e)

(* {1 Scoped expression iteration}

   A pre-order walk that calls [f ~env] on every expression node, where
   [env] is the set of value names bound between the walk's root and the
   node — parameters, let/match/for bindings. This is what lets the
   analyses distinguish closure-local state (a [ref] made inside a
   parallel task) from captured state (the data race). *)

let rec iter_expr ~env f e =
  f ~env e;
  let go env' e = iter_expr ~env:env' f e in
  let go_cases env' cases =
    List.iter
      (fun c ->
        let cenv = add_pat env' c.pc_lhs in
        Option.iter (iter_expr ~env:cenv f) c.pc_guard;
        iter_expr ~env:cenv f c.pc_rhs)
      cases
  in
  match e.pexp_desc with
  | Pexp_ident _ | Pexp_constant _ | Pexp_new _ | Pexp_unreachable | Pexp_extension _
  | Pexp_object _ ->
    ()
  | Pexp_let (rf, vbs, body) ->
    let env' = List.fold_left (fun acc vb -> add_pat acc vb.pvb_pat) env vbs in
    let rhs_env = match rf with Asttypes.Recursive -> env' | Asttypes.Nonrecursive -> env in
    List.iter (fun vb -> go rhs_env vb.pvb_expr) vbs;
    go env' body
  | Pexp_function cases -> go_cases env cases
  | Pexp_fun (_, default, pat, body) ->
    Option.iter (go env) default;
    go (add_pat env pat) body
  | Pexp_apply (fn, args) ->
    go env fn;
    List.iter (fun (_, a) -> go env a) args
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
    go env scrut;
    go_cases env cases
  | Pexp_tuple es | Pexp_array es -> List.iter (go env) es
  | Pexp_construct (_, eo) | Pexp_variant (_, eo) -> Option.iter (go env) eo
  | Pexp_record (fields, base) ->
    List.iter (fun (_, v) -> go env v) fields;
    Option.iter (go env) base
  | Pexp_field (e, _) | Pexp_send (e, _) | Pexp_assert e | Pexp_lazy e
  | Pexp_poly (e, _) | Pexp_newtype (_, e) | Pexp_constraint (e, _)
  | Pexp_coerce (e, _, _) | Pexp_setinstvar (_, e) ->
    go env e
  | Pexp_setfield (a, _, b) | Pexp_sequence (a, b) | Pexp_while (a, b) ->
    go env a;
    go env b
  | Pexp_ifthenelse (c, t, eo) ->
    go env c;
    go env t;
    Option.iter (go env) eo
  | Pexp_for (pat, lo, hi, _, body) ->
    go env lo;
    go env hi;
    go (add_pat env pat) body
  | Pexp_override fields -> List.iter (fun (_, v) -> go env v) fields
  | Pexp_letmodule (_, me, body) ->
    iter_module ~env f me;
    go env body
  | Pexp_letexception (_, body) -> go env body
  | Pexp_pack me -> iter_module ~env f me
  | Pexp_open (od, body) ->
    iter_module ~env f od.popen_expr;
    go env body
  | Pexp_letop { let_; ands; body } ->
    let ops = let_ :: ands in
    List.iter (fun op -> go env op.pbop_exp) ops;
    let env' = List.fold_left (fun acc op -> add_pat acc op.pbop_pat) env ops in
    go env' body

(* Module expressions inside expressions ([let module], first-class
   modules): walk any structures they contain with the same env. *)
and iter_module ~env f me =
  match me.pmod_desc with
  | Pmod_structure items ->
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) -> List.iter (fun vb -> iter_expr ~env f vb.pvb_expr) vbs
        | Pstr_eval (e, _) -> iter_expr ~env f e
        | Pstr_module { pmb_expr; _ } -> iter_module ~env f pmb_expr
        | _ -> ())
      items
  | Pmod_functor (_, body) -> iter_module ~env f body
  | Pmod_constraint (me, _) -> iter_module ~env f me
  | Pmod_apply (a, b) ->
    iter_module ~env f a;
    iter_module ~env f b
  | Pmod_apply_unit me -> iter_module ~env f me
  | Pmod_ident _ | Pmod_unpack _ | Pmod_extension _ -> ()
