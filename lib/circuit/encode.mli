(** CNF encoding of circuits (Sec. 2, Table 1 and Figure 1 of the paper).

    Each circuit node gets a formula variable; each gate contributes the
    clauses of Table 1, which characterise its consistent input/output
    assignments.  The circuit CNF is the union of the per-gate clause
    sets. *)

val gate_clauses :
  out:Cnf.Lit.t -> ins:Cnf.Lit.t list -> Gate.t -> Cnf.Clause.t list
(** The Table 1 clause set for a single gate.  XOR/XNOR beyond two inputs
    are not accepted here (no room for auxiliary variables): raises
    [Invalid_argument]; {!encode_into} decomposes them instead. *)

type mapping = {
  formula : Cnf.Formula.t;
  lit_of_node : Netlist.node_id -> Cnf.Lit.t;
      (** the formula literal standing for a node's value *)
}

val encode : Netlist.t -> mapping
(** Encodes the whole circuit into a fresh formula.  Constants become
    unit clauses. *)

val encode_into : Cnf.Formula.t -> Netlist.t -> Netlist.node_id -> Cnf.Lit.t
(** Encodes one more copy of the circuit into an existing formula, every
    node on fresh variables, and returns the node-to-literal map.  The
    gate-level Sec. 3 applications tie copies together with their own
    clauses; sequential unrolling goes through the AIG instead
    ([Eda.Bmc]). *)

val assert_output : Cnf.Formula.t -> Cnf.Lit.t -> bool -> unit
(** Constrains a node literal to an objective value, e.g. the [z = 0]
    property of Figure 1. *)
