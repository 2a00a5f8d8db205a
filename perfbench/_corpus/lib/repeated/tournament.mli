(** Axelrod-style round-robin tournaments (paper §3: "tit-for-tat does
    exceedingly well in FRPD tournaments"). *)

type entry = {
  automaton : Automaton.t;
  score : float;  (** Total (undiscounted by default) payoff. *)
  cooperation : float;  (** Average cooperation rate across matches. *)
}

val round_robin :
  ?delta:float -> ?include_self_play:bool -> ?noise:(Bn_util.Prng.t * float) ->
  stage:Repeated.stage -> rounds:int ->
  Automaton.t list -> entry list
(** Every pair (and optionally self-play) meets once per side; entries are
    returned sorted by descending score. With [noise], every realized
    action trembles with the given probability ({!Repeated.noisy_play}) —
    Axelrod's noisy-rematch setting, where unforgiving strategies fall in
    the ranking. *)

val default_field : Automaton.t list
(** The classic field: AllC, AllD, Grim, TfT, Pavlov, Alternator. *)

val winner : entry list -> Automaton.t
(** @raise Invalid_argument on an empty tournament. *)
