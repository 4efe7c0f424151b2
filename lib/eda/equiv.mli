(** Combinational equivalence checking (Sec. 3, [16, 19, 26]).

    SAT-based checking solves the miter CNF; the BDD-based checker builds
    canonical output functions and compares them — the head-to-head of
    experiment E10. *)

type verdict = Verdict.t =
  | Equivalent
  | Inequivalent of bool array
      (** a distinguishing input vector, in input order *)
  | Inconclusive of string
      (** budget exhausted (SAT) or node limit hit (BDD) *)

type report = {
  verdict : verdict;
  time_seconds : float;
  sat_stats : Sat.Types.stats option;
  bdd_nodes : int;  (** 0 for the SAT method *)
}

val check_sat :
  ?metrics:Sat.Metrics.t ->
  ?trace:Sat.Trace.sink ->
  ?config:Sat.Types.config ->
  ?engine:Sat.Solver.engine ->
  ?pipeline:Sat.Solver.pipeline ->
  Circuit.Netlist.t -> Circuit.Netlist.t -> report
(** Solves the miter; [pipeline] defaults to no preprocessing (set
    equivalency reasoning etc. for experiment E7).  [engine] overrides
    the solving engine — e.g. [Sat.Solver.Portfolio _] races diversified
    workers on one hard miter; it defaults to [Cdcl config].  [metrics]
    and [trace] are forwarded to {!Sat.Solver.solve}. *)

val check_bdd :
  ?node_limit:int -> Circuit.Netlist.t -> Circuit.Netlist.t -> report
(** Builds ROBDDs for all outputs of both circuits in input order;
    equivalence is pointer equality.  [node_limit] (default 500_000)
    bounds blow-up. *)

val check_fraig :
  ?metrics:Sat.Metrics.t ->
  ?trace:Sat.Trace.sink ->
  ?config:Sat.Types.config ->
  ?words:int ->
  ?seed:int ->
  ?candidate_conflicts:int ->
  Circuit.Netlist.t -> Circuit.Netlist.t -> report
(** The full fraiging pipeline of {!Sweep.check}: structural hashing
    into one AIG, simulation-derived candidate classes, incremental SAT
    sweeping with merge-on-proof and counterexample-driven refinement.
    The default CEC engine.  [bdd_nodes] reports the live node count of
    the functionally reduced AIG; use {!Sweep.check} directly for the
    per-phase breakdown. *)
