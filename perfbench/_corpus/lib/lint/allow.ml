open Parsetree

type t = { rule : string; reason : string; line : int }

(* String constants of the payload expression, left to right:
   ["D001" "reason"] parses as an application of one constant to another. *)
let rec strings e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> [ s ]
  | Pexp_apply (f, args) -> strings f @ List.concat_map (fun (_, a) -> strings a) args
  | Pexp_tuple es -> List.concat_map strings es
  | Pexp_sequence (a, b) -> strings a @ strings b
  | _ -> []

let of_attribute (attr : attribute) =
  if attr.attr_name.txt <> "lint.allow" then None
  else
    let line = attr.attr_loc.loc_start.pos_lnum in
    match attr.attr_payload with
    | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
      match strings e with
      | [] -> Some { rule = ""; reason = ""; line }
      | rule :: rest -> Some { rule; reason = String.concat " " rest; line })
    | _ -> Some { rule = ""; reason = ""; line }

(* Walk with the default iterator: floating attributes can sit inside
   sub-structures ([module M = struct [@@@lint.allow ...] ... end]). *)
let scan_with iter_root ast =
  let acc = ref [] in
  let attribute _this attr =
    match of_attribute attr with Some a -> acc := a :: !acc | None -> ()
  in
  let iter = { Ast_iterator.default_iterator with attribute } in
  iter_root iter ast;
  List.rev !acc

let scan_structure str = scan_with (fun it s -> it.Ast_iterator.structure it s) str
let scan_signature sg = scan_with (fun it s -> it.Ast_iterator.signature it s) sg

let apply ~file allows findings =
  let valid a = a.rule <> "" && a.reason <> "" && Finding.known_rule a.rule && a.rule <> "A001" in
  let suppress (f : Finding.t) =
    if f.rule = "A001" then f
    else
      match List.find_opt (fun a -> valid a && a.rule = f.rule) allows with
      | Some a -> { f with suppressed = Some a.reason }
      | None -> f
  in
  let findings = List.map suppress findings in
  let audit a =
    let bad msg = Some (Finding.v ~rule:"A001" ~file ~line:a.line ~col:0 msg) in
    if a.rule = "" then bad "malformed [@@@lint.allow]: expected a rule ID and a reason string"
    else if a.rule = "A001" then bad "A001 (the suppression audit) cannot itself be suppressed"
    else if not (Finding.known_rule a.rule) then
      bad (Printf.sprintf "[@@@lint.allow %S]: unknown rule ID" a.rule)
    else if a.reason = "" then
      bad (Printf.sprintf "[@@@lint.allow %S]: missing reason string" a.rule)
    else if not (List.exists (fun (f : Finding.t) -> f.rule = a.rule) findings) then
      bad (Printf.sprintf "[@@@lint.allow %S]: unused — no finding of that rule in this file" a.rule)
    else None
  in
  findings @ List.filter_map audit allows
