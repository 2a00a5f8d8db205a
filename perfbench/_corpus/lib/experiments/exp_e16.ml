(** E16 (extension) — asynchronous cheap-talk mediators
    (arXiv:1806.01214, arXiv:2309.14618).

    §2's characterization assumes synchrony; its successors move the story
    to asynchronous networks (implementable iff [n > 4(k+t)]) and to
    sequential rationality. E16 renders the mediator sweep: the (n,k,t)
    grid classified in both settings, the sequential-equilibrium
    cross-checks, and Explore-witnessed boundaries — zero violations on
    the possibility side, shrunk locally-minimal counterexamples (and
    their replay lines) on the impossibility side. *)

let name = "E16"
let title = "asynchronous mediators: explore-witnessed (n,k,t) regime boundaries"

let run ?(jobs = 1) () = Mediator_sweep.render ~jobs ~trials:50 ~seed:16 ()
