(* paper: one op renders E1–E17 in registry order at one domain, as
   [main.exe --all -j 1] does, and passes only if every transcript matches
   the digest recorded in [Recorded.paper]. *)

open Harness
module Experiments = Bn_experiments.Experiments
module Obs = Bn_obs.Obs

let digest s = Digest.to_hex (Digest.string s)

(* [expected] is a list of (experiment id, transcript digest); the op
   renders those experiments in that order. E6, E10 and E17 each run for
   10–15 s, so the op takes its steps from a timer. *)
let op ?(probe = off) expected () =
  let mismatch (id, recorded) =
    match probe.call ("experiments." ^ id) (fun () -> Experiments.render ~jobs:1 id) with
    | None -> Some (id ^ " is not in the registry")
    | Some t when digest t = recorded -> None
    | Some t -> Some (Printf.sprintf "%s transcript digest %s, recorded %s" id (digest t) recorded)
  in
  match with_timer_steps (fun () -> List.filter_map mismatch expected) with
  | [] -> Pass
  | bad -> fail "check" "%s" (String.concat "; " bad)

let pass_s = 43.

let known_failures = []

type inputs = unit

let load ~seed:_ = ()

(* Warm-up: the cheap experiments only, checked, so set-up stays a small
   share of a run; the three heavy ones (E6, E10, E17) run only in the
   op. *)
let warm_up () =
  let cheap = List.filter (fun (id, _) -> not (List.mem id [ "E6"; "E10"; "E17" ])) Recorded.paper in
  run_passes ~reference:Speed_ref.reference ~passes:1 [| ("E1-E17 but E6, E10, E17", op cheap) |]

let pass probe () = [| ("E1-E17", op ~probe Recorded.paper) |]

let layers find (s : summary) =
  let per_op x = x /. float s.attempted in
  let exp =
    List.concat_map
      (fun (id, _) ->
        let a = find ("experiments." ^ id) in
        let busy, alloc = match a with Some a -> (a.time_s, a.words) | None -> (0., 0.) in
        [
          ("experiments." ^ id ^ "_s", per_op busy);
          ("experiments." ^ id ^ "_alloc_mw", per_op alloc /. 1e6);
        ])
      Recorded.paper
  in
  let step =
    List.filter (fun (r : Obs.Profile.row) -> List.nth r.path (List.length r.path - 1) = "scrip_soa.step")
      (Obs.Profile.rows ())
  in
  let sum f = List.fold_left (fun a r -> a +. f r) 0. step in
  let calls = sum (fun r -> float r.calls) in
  let per_step x = if calls = 0. then 0. else x /. calls in
  let step_alloc =
    match List.assoc_opt "scrip_soa.step" (Obs.gc_snapshot ()) with Some (w, _, _) -> float w | None -> 0.
  in
  let counter name = float (Obs.value (Obs.counter name)) in
  exp
  @ [
      ("scrip_soa.step_calls", per_op calls);
      ("scrip_soa.step_ms", per_step (sum (fun r -> r.incl_us)) /. 1e3);
      ("scrip_soa.step_self_ms", per_step (sum (fun r -> r.excl_us)) /. 1e3);
      ("scrip_soa.step_alloc_mw", per_step step_alloc /. 1e6);
      ("scrip_soa.requests", per_op (counter "scrip_soa.requests"));
      ("gnutella_soa.queries", per_op (counter "gnutella_soa.queries"));
      ("pool.chunks", per_op (counter "pool.chunks"));
    ]
