(** And-inverter graphs: two-input AND nodes with complemented edges,
    hash-consed on construction.

    The normal form behind most SAT-based EDA flows: conversion to AIG
    is itself a structural-hashing pass, two circuits built into one
    manager share all common logic, and the CNF translation emits three
    clauses per AND node.

    Construction applies {e two-level rewriting} on top of the level-one
    identities: absorption ([(x & y) & x = x & y]), two-level
    contradiction ([(x & y) & ~x = 0], including between two AND
    children), substitution ([~(x & y) & x = x & ~y]) and resolution
    ([~(x & y) & ~(x & ~y) = ~x]).  Together with constant propagation
    these are the bounded cleanup rules of a fraiging front-end: they
    fire in O(1) per node and never grow the graph. *)

type man
(** A manager; owns the node table. *)

type lit = private int
(** An edge: node index with a complement bit.  Only valid with the
    manager that created it. *)

val create : unit -> man

val const_false : lit
val const_true : lit

val add_input : man -> lit
(** Inputs are numbered in creation order. *)

val num_inputs : man -> int

val input : man -> int -> lit
(** The edge of the i-th input (creation order).  Raises [Not_found]
    when out of range. *)

val num_ands : man -> int

val neg : lit -> lit
val is_complemented : lit -> bool

val node_of : lit -> int
(** The node index under an edge. *)

val of_node : int -> lit
(** The uncomplemented edge of a node index. *)

val and_ : man -> lit -> lit -> lit
(** Hash-consed with the level-one simplifications ([a & a = a],
    [a & ~a = 0], constants) plus the two-level rewriting rules above. *)

val or_ : man -> lit -> lit -> lit
val xor : man -> lit -> lit -> lit
val mux : man -> lit -> lit -> lit -> lit
(** [mux m s t e] = if [s] then [t] else [e]. *)

type view = Const | Input of int | And of lit * lit

val view : man -> int -> view
(** Structure of a node, for algorithms that walk the graph (sweeping,
    cone extraction).  Node indices are a topological order: an AND's
    children always have smaller indices. *)

val eval : man -> bool array -> lit -> bool
(** Input values in creation order. *)

val sim_words : man -> int array -> int array
(** 62-way bit-parallel simulation: each input carries
    [Circuit.Simulate.word_width] packed patterns; returns the packed
    word per node (indexed by node, not edge).  One linear pass over the
    node table. *)

val of_netlist : Circuit.Netlist.t -> man * (string * lit) list
(** Converts a combinational netlist; returns the manager and the named
    output edges.  The AIG inputs correspond positionally to the
    netlist's inputs. *)

val merge_netlists :
  Circuit.Netlist.t -> Circuit.Netlist.t -> man * (lit * lit) list
(** Builds both circuits over shared inputs in one manager — common
    structure is hash-consed away — and returns the paired output
    edges.  Raises [Invalid_argument] on interface mismatch. *)

val cleanup : man -> outputs:lit list -> man * lit list
(** Dangling-node sweep: rebuilds the cones of [outputs] in a fresh
    manager through the rewriting constructor, re-applying constant
    propagation and the two-level rules, and drops every node not
    reachable from the outputs.  The input interface (count and order)
    is preserved even for inputs no output depends on. *)

val build_from : man -> Circuit.Netlist.t -> lit array -> lit array
(** [build_from m c input_edges] builds [c]'s gates into [m] over the
    given edges for [c]'s inputs (positionally, in
    {!Circuit.Netlist.inputs} order) and returns the edge of every
    netlist node, indexed by node id.  Calling it again with other input
    edges builds another copy: the way circuits are unrolled into one
    manager, sharing every structurally equal node. *)

val to_netlist : man -> outputs:(string * lit) list -> Circuit.Netlist.t
(** Re-materialises as a gate netlist (AND/NOT gates). *)

val to_cnf : man -> roots:lit list -> Cnf.Formula.t * (lit -> Cnf.Lit.t)
(** Tseitin translation of the cone of [roots] into a standalone
    formula: input [k] is variable [k] (every input, reached or not),
    and each AND node of the cone gets one variable and three clauses.
    The mapping converts an edge of the cone, or any input edge, to a
    formula literal; other edges raise [Invalid_argument]. *)

val node_count : man -> int
(** Inputs + AND nodes + the constant. *)

(** Incremental per-node CNF emission into a {!Sat.Session}.

    The substrate of SAT sweeping: instead of translating the whole
    graph up front, clauses are emitted lazily, cone by cone, as the
    sweep queries nodes.  Each AND node's three Tseitin clauses are
    permanent session clauses: a definition only names a node, so it
    never needs switching off, and learned clauses stay valid across
    every later query.  A query therefore assumes only the literals it
    is about. *)
module Session_cnf : sig
  type t

  val create : ?config:Sat.Types.config -> man -> t
  (** A fresh empty session over the manager.  The manager may keep
      growing after this call; new nodes are picked up lazily. *)

  val session : t -> Sat.Session.t
  (** The underlying session — for solving, budgets, metrics, tracing. *)

  val lit_of : t -> lit -> Cnf.Lit.t
  (** The session literal of an edge.  On first touch of a node this
      emits the defining clauses of its whole cone as permanent clauses
      (three per AND node, a unit for the constant node, a bare
      variable for an input); a node already emitted adds nothing.
      Every session variable the call allocates is seeded at the
      solver's current VSIDS activity ceiling ({!Sat.Session.apply_guidance}
      with activity 1 and no phase seed), so the next search branches
      first on the cone just emitted; saved phases are left alone. *)

  val value : t -> bool array -> lit -> bool
  (** An edge's value under a model of the session.  A node never
      emitted (or allocated after the model was found) is
      unconstrained and reads false; emits nothing. *)

  val emitted_nodes : t -> int
  (** Number of AND nodes whose clauses have been emitted so far. *)
end
