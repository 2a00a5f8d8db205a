(** Two-phase simplex solver.

    Solves {e maximize} [c·x] subject to linear constraints and [x ≥ 0].
    This is the substrate for zero-sum game values, maxmin/minmax levels and
    punishment-strategy computation in the robustness and mediator
    libraries.

    The default {!solve} is a revised simplex: the constraint matrix is
    stored once in compressed sparse columns on a flat float64 Bigarray and
    never touched again; each pivot updates only an explicit basis inverse
    (and the basic solution) by an eta transformation, and pricing scans
    stored nonzeros only. The original dense tableau is retained as
    {!solve_dense}, whose pivoting rules the revised method mirrors; the
    QCheck suite pins their agreement on random LPs and zero-sum games. *)

type relation = Le | Ge | Eq
(** Direction of a constraint row. *)

type constraint_row = {
  coeffs : float array;  (** One coefficient per structural variable. *)
  relation : relation;
  rhs : float;
}

type problem = {
  objective : float array;  (** Maximized. One entry per variable. *)
  constraints : constraint_row list;
}

type outcome =
  | Optimal of { solution : float array; value : float }
  | Infeasible
  | Unbounded

val solve : problem -> outcome
(** Two-phase revised simplex with Bland's anti-cycling rule. All structural
    variables are implicitly ≥ 0; encode a free variable as the difference
    of two non-negative ones. *)

val solve_dense : problem -> outcome
(** Reference implementation of {!solve} on a dense two-phase tableau.
    Same pivoting rules; retained as the oracle for the sparse-vs-dense
    agreement property tests. *)

val maximize : float array -> constraint_row list -> outcome
(** [maximize c rows] is [solve { objective = c; constraints = rows }]. *)

val le : float array -> float -> constraint_row
val ge : float array -> float -> constraint_row
val eq : float array -> float -> constraint_row
(** Row constructors. *)
