(** Recursive learning on CNF formulas (Sec. 4.2, Figure 4).

    For a clause that is neither satisfied nor resolved under the current
    (assumption) assignment, each of its free literals is assumed in turn
    and propagated; assignments implied in {e every} branch are necessary
    for the clause — hence for the formula — to be satisfied.  Each
    necessary assignment is recorded together with an explanation clause:
    an implicate of the formula built from the assumption-level
    antecedents the branches actually used, so the same assignments are
    never re-derived during subsequent search (the improvement over
    circuit recursive learning that the paper emphasises).

    Depth [k] recursion performs nested case splits inside branches that
    are not conclusive on their own.

    Branches run on the watcher-based propagator of {!module:Cdcl}: the
    assumptions share one decision level, each branch probes on the
    level above its parent ({!Cdcl.probe_push}), and an explanation
    walks the implication graph ({!Cdcl.iter_reason}) down to the
    parent's level ({!Cdcl.var_level}). *)

type result = {
  necessary : Cnf.Lit.t list;
      (** assignments implied under the given assumptions *)
  implicates : Cnf.Clause.t list;
      (** one explanation clause per necessary assignment; with no
          assumptions these are unit clauses *)
  unsat : bool;
      (** some clause cannot be satisfied under the assumptions *)
  splits : int;
      (** number of case splits performed, counting the depth-1 splits
          ruled out without probing (see {!learn}) *)
}

val learn :
  ?assumptions:Cnf.Lit.t list ->
  ?depth:int ->
  ?deadline:float ->
  Cnf.Formula.t ->
  result
(** Defaults: no assumptions, depth 1.  Fixed bounds: only clauses of
    up to 8 literals are split, and at most 4 passes run (each pass
    re-examines clauses with the newly derived assignments in force).

    At depth 1 a split is ruled out without probing when no free
    literal of its clause can imply another literal.  Assigning a
    literal [l] implies another one only through a clause that holds
    [¬l] and is {e effectively binary}: unsatisfied, with exactly two
    free literals.  Without one, each branch implies only its own
    literal, so the common set of two or more branches is empty.  The
    can-imply marks are rebuilt at the start of each pass and dropped
    for the rest of the pass after any asserted implicate, which can
    make more clauses effectively binary.  A ruled-out clause still
    counts in [splits], so [splits] is the same as if it had been
    probed.  Without assumptions, on a formula with no clause shorter
    than two literals, the marks can be read off the binary clauses;
    when they rule out every clause, [learn] returns without building
    a solver.

    [deadline] is an absolute {!Monotime.now_s} instant, checked before
    each clause is examined; once it has passed, [learn] returns what
    it has derived so far.  Without it no clock is read. *)

val strengthen :
  ?depth:int -> ?deadline:float -> Cnf.Formula.t -> Cnf.Formula.t * result
(** Preprocessing wrapper: runs {!learn} without assumptions and returns
    the formula extended with the derived unit implicates. *)
