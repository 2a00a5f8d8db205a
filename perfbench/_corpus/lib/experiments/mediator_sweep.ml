(** Mediator regime sweep over the (n,k,t) grid — synchronous bullets,
    asynchronous threshold, sequential-equilibrium checks and
    Explore-witnessed boundaries in one table set.

    Each {!cell} brackets the asynchronous [n > 4(k+t)] threshold from one
    side. On the possibility side the explorer must find no invariant
    violation across every seeded schedule; on the impossibility side it
    must find one and shrink it to the locally minimal witness —
    [n - 3(k+t)] silenced parties, or the empty schedule when [n ≤ 3(k+t)].
    Rendered by E16 and [bin/main.exe --mediator-sweep]; everything is
    deterministic in (seed, trials), independent of [-j]. *)

module B = Beyond_nash

type cell = {
  n : int;
  k : int;
  t : int;
  gen : B.Prng.t -> B.Faults.schedule;
}

(* Sub-Byzantine schedules from at most f = k+t culprits: omission faults
   plus corruption (exercising Berlekamp-Welch on the possibility side).
   Async_cheap_talk.explore sanitizes away dealer-blaming events. *)
let byz ~n ~f rng =
  B.Faults.random_schedule rng
    (B.Faults.byzantine ~n ~rounds:2 ~max_events:((2 * f) + 2) ~max_culprits:f)

let mk (n, k, t) = { n; k; t; gen = byz ~n ~f:(k + t) }

let cells = List.map mk [ (5, 1, 0); (4, 1, 0); (3, 1, 0); (9, 1, 1); (8, 1, 1); (6, 1, 1) ]

let cell_name c = Printf.sprintf "n=%d k=%d t=%d" c.n c.k c.t

let explore_cell ?(pool = B.Pool.serial) ~seed ~trials c =
  B.Async_cheap_talk.explore ~pool ~seed ~trials ~gen:c.gen ~n:c.n ~k:c.k ~t:c.t
    ~general_type:1 ()

let expected c = B.Feasibility.classify_async ~n:c.n ~k:c.k ~t:c.t

let verdict c report =
  let found = report.B.Explore.violations <> [] in
  match (expected c, found) with
  | B.Feasibility.Async_implementable, false -> "OK (robust)"
  | B.Feasibility.Async_implementable, true -> "UNEXPECTED VIOLATION"
  | (B.Feasibility.Async_breaks_under_faults | B.Feasibility.Async_breaks_fault_free), true ->
    "OK (counterexample found)"
  | (B.Feasibility.Async_breaks_under_faults | B.Feasibility.Async_breaks_fault_free), false ->
    "counterexample NOT found"

(* Both canned games' sequential verdicts, next to the classification each
   must reproduce: the stall game flips with classify_async, the
   punishment game with the n > 2k+2t broadcast bullet. *)
let sequential_rows c =
  let seq (game, profile) = B.Sequential.check game profile ~k:c.k = None in
  let stall_eq = seq (B.Sequential.async_stall_game ~n:c.n ~k:c.k ~t:c.t) in
  let punish_eq = seq (B.Sequential.punishment_game ~n:c.n ~k:c.k ~t:c.t) in
  let stall_expected = expected c = B.Feasibility.Async_implementable in
  let punish_expected = c.n > (2 * c.k) + (2 * c.t) in
  (stall_eq, stall_eq = stall_expected, punish_eq, punish_eq = punish_expected)

(* Entry point used by the bench harness: the smallest impossibility cell
   (find + shrink at n = 4(k+t)) as a single timed kernel. *)
let explore_async_n4k1t0 ?(pool = B.Pool.serial) ~seed ~trials () =
  explore_cell ~pool ~seed ~trials (mk (4, 1, 0))

let bool_cell b = if b then "yes" else "NO"

let render ?(jobs = 1) ~trials ~seed () =
  let pool = B.Pool.create ~domains:jobs () in
  let reports = List.map (fun c -> (c, explore_cell ~pool ~seed ~trials c)) cells in
  let grid =
    B.Tab.create ~title:"mediator regimes across the (n,k,t) grid"
      [ "cell"; "sync (bare)"; "sync (broadcast)"; "sync (pki)"; "async" ]
  in
  List.iter
    (fun c ->
      let sync a = B.Feasibility.describe (B.Feasibility.classify ~n:c.n ~k:c.k ~t:c.t a) in
      B.Tab.add_row grid
        [
          cell_name c;
          sync B.Feasibility.no_assumptions;
          sync { B.Feasibility.no_assumptions with B.Feasibility.broadcast = true };
          sync { B.Feasibility.no_assumptions with B.Feasibility.pki = true };
          B.Feasibility.describe_async (expected c);
        ])
    cells;
  B.Tab.print grid;
  let seq =
    B.Tab.create ~title:"k-resilient sequential equilibrium vs. classification"
      [ "cell"; "stall game eq"; "matches async"; "punishment eq"; "matches 2k+2t" ]
  in
  List.iter
    (fun c ->
      let stall_eq, stall_ok, punish_eq, punish_ok = sequential_rows c in
      B.Tab.add_row seq
        [
          cell_name c;
          string_of_bool stall_eq;
          bool_cell stall_ok;
          string_of_bool punish_eq;
          bool_cell punish_ok;
        ])
    cells;
  B.Tab.print seq;
  let tab =
    B.Tab.create
      ~title:
        (Printf.sprintf "async schedule exploration (seed=%d, %d schedules/cell)" seed trials)
      [ "cell"; "expected"; "violations"; "min shrunk"; "predicted witness"; "verdict" ]
  in
  List.iter
    (fun (c, report) ->
      let shrunk = B.Explore.min_shrunk_size report in
      let predicted = B.Async_cheap_talk.stall_witness_size ~n:c.n ~k:c.k ~t:c.t in
      B.Tab.add_row tab
        [
          cell_name c;
          (match expected c with
          | B.Feasibility.Async_implementable -> "no violation"
          | B.Feasibility.Async_breaks_under_faults -> "breaks under faults"
          | B.Feasibility.Async_breaks_fault_free -> "breaks fault-free");
          Printf.sprintf "%d/%d" (List.length report.B.Explore.violations) trials;
          (if shrunk = max_int then "-" else string_of_int shrunk);
          (match expected c with
          | B.Feasibility.Async_implementable -> "-"
          | _ -> Printf.sprintf "%d event%s" predicted (if predicted = 1 then "" else "s"));
          verdict c report;
        ])
    reports;
  B.Tab.print tab;
  List.iter
    (fun (c, report) ->
      if report.B.Explore.violations <> [] then
        B.Out.print_string (B.Explore.transcript ~name:(cell_name c) report))
    reports;
  B.Out.print_string "\n"

(* {1 JSON artifact} *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | ch when Char.code ch < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.contents buf

let sweep_json ?(jobs = 1) ~trials ~seed () =
  let pool = B.Pool.create ~domains:jobs () in
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "{\n";
  p "  \"schema\": \"mediator-sweep/1\",\n";
  p "  \"seed\": %d,\n" seed;
  p "  \"trials\": %d,\n" trials;
  p "  \"cells\": [\n";
  List.iteri
    (fun i c ->
      let report = explore_cell ~pool ~seed ~trials c in
      let shrunk = B.Explore.min_shrunk_size report in
      let stall_eq, stall_ok, punish_eq, punish_ok = sequential_rows c in
      p "    { \"n\": %d, \"k\": %d, \"t\": %d,\n" c.n c.k c.t;
      p "      \"async\": \"%s\",\n" (json_escape (B.Feasibility.describe_async (expected c)));
      p "      \"violations\": %d,\n" (List.length report.B.Explore.violations);
      p "      \"min_shrunk\": %s,\n" (if shrunk = max_int then "null" else string_of_int shrunk);
      p "      \"predicted_witness\": %s,\n"
        (match expected c with
        | B.Feasibility.Async_implementable -> "null"
        | _ -> string_of_int (B.Async_cheap_talk.stall_witness_size ~n:c.n ~k:c.k ~t:c.t));
      p "      \"sequential_stall_eq\": %b, \"sequential_stall_matches\": %b,\n" stall_eq stall_ok;
      p "      \"sequential_punishment_eq\": %b, \"sequential_punishment_matches\": %b,\n"
        punish_eq punish_ok;
      p "      \"verdict\": \"%s\" }%s\n"
        (json_escape (verdict c report))
        (if i = List.length cells - 1 then "" else ","))
    cells;
  p "  ]\n";
  p "}\n";
  Buffer.contents buf
