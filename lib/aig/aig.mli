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

val to_netlist : man -> outputs:(string * lit) list -> Circuit.Netlist.t
(** Re-materialises as a gate netlist (AND/NOT gates). *)

val to_cnf : man -> Cnf.Formula.t * (lit -> Cnf.Lit.t)
(** Tseitin translation: one variable per node, three clauses per AND.
    The mapping converts any edge of the manager to a formula literal. *)

val node_count : man -> int
(** Inputs + AND nodes + the constant. *)

(** {2 Structure observations for solver guidance}

    The signals docs/TUNING.md's seeding rules consume: estimated
    signal probabilities from random 62-way bit-parallel simulation,
    and structural fanout counts.  Deterministic for a fixed seed. *)

val fanout_counts : man -> int array
(** Per-node fanout: how many AND nodes reference the node (either
    polarity), indexed by node id. *)

val signal_probs : ?rounds:int -> ?seed:int -> man -> float array
(** Per-node signal probability estimated over [rounds] (default 4)
    random simulation words — [rounds * 62] patterns — indexed by node
    id.  The constant node reports 1. *)

val guidance :
  ?rounds:int ->
  ?seed:int ->
  man ->
  var_of:(int -> int option) ->
  Sat.Types.guidance
(** Branching guidance for an encoding of this graph: observations for
    every node [var_of] maps to a solver variable, folded through
    {!Sat.Guide.of_observations}.  For a {!to_cnf} encoding,
    [var_of id = Some (Cnf.Lit.var (lit_of (of_node id)))]. *)

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
      variable for an input); a node already emitted adds nothing. *)

  val emitted_nodes : t -> int
  (** Number of AND nodes whose clauses have been emitted so far. *)

  val guide :
    t -> prob_of:(int -> float) -> fanout_of:(int -> int) -> unit
  (** Seeds the session's branching heuristic
      ({!Sat.Session.apply_guidance}) for every node whose session
      variable was allocated since the previous [guide] call, asking
      the suppliers for each node's signal probability and fanout.
      Consuming the pending list makes repeated calls O(new nodes) —
      call it after each batch of [lit_of] touches, e.g. once per
      sweep round.  Legal between solves. *)

  val pending_guides : t -> int
  (** Number of nodes awaiting a [guide] call (exposed for tests). *)
end
