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
  splits : int;  (** number of case splits performed *)
}

val learn :
  ?assumptions:Cnf.Lit.t list -> ?depth:int -> Cnf.Formula.t -> result
(** Defaults: no assumptions, depth 1.  Fixed bounds: only clauses of
    up to 8 literals are split, and at most 4 passes run (each pass
    re-examines clauses with the newly derived assignments in force). *)

val strengthen :
  ?depth:int -> Cnf.Formula.t -> Cnf.Formula.t * result
(** Preprocessing wrapper: runs {!learn} without assumptions and returns
    the formula extended with the derived unit implicates. *)
