(** Redirectable output for the experiment harness.

    Experiments print through this module instead of [Printf]/[print_*].
    By default everything goes to stdout; {!with_capture} reroutes the
    {e current domain}'s output into a private buffer, which is how
    [Experiments.run_all] renders every experiment on a separate domain
    and still prints the byte-exact serial transcript in registry order.
    The sink is domain-local state, so concurrent captures on different
    domains never interleave. *)

val printf : ('a, unit, string, unit) format4 -> 'a
(** [printf fmt ...] — like [Printf.printf], into the current sink. *)

val print_string : string -> unit
val print_endline : string -> unit
val print_newline : unit -> unit

val with_capture : (unit -> unit) -> string
(** [with_capture f] runs [f] with this domain's sink pointing at a fresh
    buffer and returns everything printed. The previous sink is restored
    on exit (also on exceptions); captures nest. *)
