(* The sink is domain-local so that pool workers capturing concurrently
   never see each other's output. [None] means stdout. *)
[@@@lint.allow "P002"
  "the per-domain render sink IS the Out mechanism: DLS keeps concurrent captures from \
   interleaving, and nothing here schedules work"]

let sink : Buffer.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let print_string s =
  match !(Domain.DLS.get sink) with
  | None -> Stdlib.print_string s
  | Some b -> Buffer.add_string b s

let printf fmt = Printf.ksprintf print_string fmt
let print_endline s = print_string s; print_string "\n"
let print_newline () = print_string "\n"

let with_capture f =
  let cell = Domain.DLS.get sink in
  let saved = !cell in
  let buf = Buffer.create 4096 in
  cell := Some buf;
  Fun.protect ~finally:(fun () -> cell := saved) f;
  Buffer.contents buf
