(** E15 (extension) — asynchrony (paper §5's open direction).

    All of §2's results assume synchrony. Here a minimal flooding consensus
    (decide the minimum after hearing from everyone) runs in an
    asynchronous network that also carries unrelated background traffic (a
    self-ticking process). Under FIFO or random scheduling the background
    noise is harmless; an adversarial scheduler spends its fairness budget
    delivering background messages while starving one participant's value,
    delaying consensus linearly in the budget — and forever, were delivery
    not eventually forced. This is §5's "things are more complicated in
    asynchronous settings", made executable. *)

module B = Beyond_nash
module A = B.Async_net

let name = "E15"
let title = "asynchrony: adversarial scheduling delays consensus at will"

type msg = Value of int | Tick

type st = { seen : (int * int) list; participants : int; ticker : bool }

(* Processes 0..n-1 flood their value and decide the minimum after hearing
   all participants; process n is a ticker that endlessly messages itself —
   the background traffic an adversarial scheduler hides behind. *)
let consensus ~n ~values =
  {
    A.init =
      (fun me ->
        if me = n then ({ seen = []; participants = n; ticker = true }, [ (n, Tick) ])
        else
          ( { seen = [ (me, values.(me)) ]; participants = n; ticker = false },
            List.init n (fun j -> (j, Value values.(me))) ));
    on_message =
      (fun ~me st ~sender m ->
        ignore me;
        match m with
        | Tick -> (st, if st.ticker then [ (sender, Tick) ] else [])
        | Value v ->
          if st.ticker || List.mem_assoc sender st.seen then (st, [])
          else ({ st with seen = (sender, v) :: st.seen }, []));
    decided =
      (fun st ->
        if st.ticker then Some (-1)
        else if List.length st.seen = st.participants then
          Some (List.fold_left (fun acc (_, v) -> min acc v) max_int st.seen)
        else None);
  }

let run ?(jobs = 1) () =
  let n = 6 in
  let values = [| 3; 5; 1; 4; 2; 6 |] in
  let tab =
    B.Tab.create ~title [ "scheduler"; "steps to decision"; "all decided"; "agreement on min" ]
  in
  let describe label result =
    let participants = Array.sub result.A.decisions 0 n in
    let decided = Array.for_all (fun d -> d <> None) participants in
    let agree = Array.for_all (function Some v -> v = 1 | None -> false) participants in
    B.Tab.add_row tab
      [ label; string_of_int result.A.steps; string_of_bool decided; string_of_bool agree ]
  in
  (* The whole scheduler sweep runs as one parallel batch: every scenario
     is an independent simulation with private scheduler state, so the
     table rows match the serial sweep for any [jobs]. *)
  let rng = B.Prng.create 15 in
  let budgets = [ 10; 100; 1000; 5000 ] in
  let scenarios =
    [ ("fifo", fun () -> A.fifo); ("random", fun () -> A.random (B.Prng.copy rng)) ]
    @ List.map
        (fun budget_size ->
          ( Printf.sprintf "delayer(victim=2, budget=%d)" budget_size,
            fun () -> A.delayer ~victim:2 ~budget:(ref budget_size) ))
        budgets
  in
  let pool = B.Pool.create ~domains:jobs () in
  let results =
    A.run_scenarios ~pool ~n:(n + 1) (List.map snd scenarios) (consensus ~n ~values)
  in
  List.iter2 (fun (label, _) result -> describe label result) scenarios results;
  B.Tab.print tab;
  (* Faulty delivery on top of the scheduler: duplication is harmless to
     the flooding protocol (receipt is idempotent), but a single lost
     value message stalls consensus forever — there is no retransmission,
     exactly the "fault-free executions are not enough" point. *)
  let tab2 =
    B.Tab.create ~title:"message-level faults under the random scheduler"
      [ "faults"; "steps"; "dropped"; "all decided" ]
  in
  List.iter
    (fun (label, drop, dup) ->
      let result =
        A.run ~n:(n + 1)
          ~scheduler:(A.random (B.Prng.create 15))
          ~faults:(B.Faults.async_filter (B.Prng.create 16) ~drop ~dup)
          (consensus ~n ~values)
      in
      let participants = Array.sub result.A.decisions 0 n in
      B.Tab.add_row tab2
        [
          label;
          string_of_int result.A.steps;
          string_of_int result.A.dropped;
          string_of_bool (Array.for_all (fun d -> d <> None) participants);
        ])
    [
      ("none", 0.0, 0.0);
      ("duplicate 20%", 0.0, 0.2);
      ("drop 15%  <-- loss stalls consensus", 0.15, 0.0);
    ];
  B.Tab.print tab2;
  B.Out.print_endline
    "shape check: decision time under the adversarial scheduler grows linearly in its\n\
     fairness budget (it hides behind background traffic while starving the victim's value);\n\
     with an unbounded budget consensus would never be reached. The synchronous simulator\n\
     (E4) decides the same task in a fixed number of rounds.\n"
