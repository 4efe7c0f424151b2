(** Equivalency reasoning (Sec. 6): detect pairs of equivalence clauses
    [(x + ~y) . (~x + y)] — more generally, strongly connected components
    of the binary-implication graph — and eliminate variables by
    substitution.

    Miters built for equivalence checking are full of such pairs, which
    is why the paper singles the technique out for EDA. *)

type result =
  | Unsat_equiv
      (** some [x] and [~x] are in the same implication cycle *)
  | Reduced of reduced

and reduced = {
  formula : Cnf.Formula.t;
      (** rewritten formula over the same variable space; merged variables
          no longer occur *)
  rep : Cnf.Lit.t array;
      (** [rep.(v)] is the literal that replaced variable [v]; it is
          [Lit.pos v] for class representatives *)
  merged : int;  (** number of variables eliminated by substitution *)
}

val detect : ?deadline:float -> Cnf.Formula.t -> result
(** Builds the implication graph from the binary clauses, computes SCCs
    (Tarjan), and substitutes class representatives throughout.

    [deadline] is an absolute {!Monotime.now_s} instant, checked before
    each step of the SCC search; once it has passed, [detect] returns
    the input formula itself with every variable its own
    representative and [merged = 0].  Without it no clock is read. *)

val complete_model : rep:Cnf.Lit.t array -> bool array -> bool array
(** Extends a model of the reduced formula to the merged variables. *)
