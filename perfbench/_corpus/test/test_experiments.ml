(* Smoke tests: every experiment must run to completion (stdout is diverted
   to /dev/null so the test output stays readable). *)

let with_silenced_stdout f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let smoke ((name, _title, run) : Bn_experiments.Experiments.entry) =
  Alcotest.test_case (Printf.sprintf "%s runs" name) `Slow (fun () ->
      with_silenced_stdout (fun () -> run ()))

let test_registry_ids () =
  let ids = List.map (fun (n, _, _) -> n) Bn_experiments.Experiments.all in
  Alcotest.(check int) "17 experiments" 17 (List.length ids);
  Alcotest.(check int) "ids unique" 17 (List.length (List.sort_uniq compare ids));
  Alcotest.(check bool) "find is case-insensitive" true
    (Bn_experiments.Experiments.find "e3" <> None);
  Alcotest.(check bool) "unknown id" true (Bn_experiments.Experiments.find "E99" = None)

let suite =
  Alcotest.test_case "registry" `Quick test_registry_ids
  :: List.map smoke Bn_experiments.Experiments.all
