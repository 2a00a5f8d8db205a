(** Finite automata playing repeated 2-action games (Rubinstein 1986,
    paper §3).

    A machine is a Moore automaton: each state outputs an action
    (0 = cooperate, 1 = defect for prisoner's dilemma) and transitions on
    the {e opponent's} action. The number of states is the machine's
    complexity — the measure Rubinstein charges for and that Example 3.2
    charges as memory cost. *)

type t = {
  name : string;
  start : int;
  output : int array;  (** [output.(s)] = action in state [s]. *)
  next : int array array;  (** [next.(s).(opp_action)] = successor. *)
}

val size : t -> int
(** Number of states — the complexity. *)

val validate : t -> unit
(** @raise Invalid_argument on out-of-range outputs/transitions. *)

val step : t -> state:int -> opp:int -> int
(** Successor state. *)

val action : t -> state:int -> int

(** {1 The classic zoo} *)

val all_c : t
val all_d : t
val tit_for_tat : t

val grim : t
(** Cooperate until the opponent defects once; then defect forever. *)

val pavlov : t
(** Win-stay lose-shift. *)

val alternator : t

val tft_defect_last : horizon:int -> t
(** Tit-for-tat that defects in round [horizon]: the best response to
    tit-for-tat in finitely repeated prisoner's dilemma. It must count
    rounds, so it needs ~2·[horizon] states — the memory the Example 3.2
    equilibrium argument charges for. *)

val defect_from : round:int -> horizon:int -> t
(** Cooperates as tit-for-tat until [round], then defects forever (a
    family of backward-induction deviations). *)
