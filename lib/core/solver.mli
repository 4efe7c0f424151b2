(** Unified solving front-end: preprocessing pipeline + engine choice +
    model reconstruction.

    This is the paper's overall recipe — [Preprocess()] followed by
    backtrack search — packaged so applications and experiments choose
    techniques declaratively. *)

type engine =
  | Cdcl of Types.config
  | Dpll of Types.config
  | Walksat of Local_search.config
  | Portfolio of Portfolio.options
      (** diversified parallel portfolio with clause sharing
          ({!module:Portfolio}); [solver_stats] aggregates all workers *)
  | Cube_conquer of Conquer.options
      (** lookahead cube generation + work-stealing conquer workers
          ({!module:Cube}, {!module:Conquer}); [solver_stats] aggregates
          the generator and all workers *)

type pipeline = {
  preprocess : bool;           (** unit/pure/subsumption/strengthening *)
  elim : bool;
      (** bounded variable elimination inside the preprocess stage
          ({!Preprocess.run}'s [elim]).  Fully compatible with proof
          logging: under a proof-producing engine the preprocessor
          emits each elimination's resolvent additions and clause
          deletions into the DRAT stream (see {!module:Preprocess} and
          {!module:Proof}), so the fastest configuration is also a
          certifiable one. *)
  probe_failed_literals : bool;
  equivalence : bool;          (** equivalency reasoning (Sec. 6) *)
  recursive_learning : int;    (** recursion depth; 0 disables (Sec. 4.2) *)
}

val no_pipeline : pipeline

val full_pipeline : pipeline
(** Everything on ([elim] included), probing off. *)

type report = {
  outcome : Types.outcome;
  solver_stats : Types.stats option;  (** absent for local search *)
  preprocess_stats : Preprocess.stats option;
  equivalence_merged : int;
  recursive_learning_implicates : int;
  proof : Types.proof_step list option;
      (** the combined DRAT stream — preprocessing steps followed by
          engine steps — refuting/deriving over the {e original}
          formula.  Present iff the engine is proof-producing: a
          sequential [Cdcl] configuration with
          [Types.config.proof_logging] on (portfolio and
          cube-and-conquer workers import foreign clauses their proofs
          cannot justify).  When preprocessing itself refutes the
          formula the stream ends with the empty clause.  Feed it to
          {!Proof.check} or {!Proof.trim}. *)
  time_seconds : float;
}

val solve :
  ?metrics:Metrics.t ->
  ?trace:Trace.sink ->
  ?engine:engine ->
  ?pipeline:pipeline ->
  Cnf.Formula.t ->
  report
(** Models returned in [outcome] are models of the {e original}
    formula.

    With a proof-producing engine (see {!report.proof}) the
    preprocessor runs with a DRAT sink (and [pures] off — pure-literal
    fixes are not RUP), and the equivalence-reasoning and
    recursive-learning stages are skipped: they rewrite the formula
    without emitting certifiable steps, and a proof must refute the
    formula the caller actually supplied.

    With [metrics], each enabled pipeline stage is timed under
    [pipeline/preprocess] / [pipeline/equivalence] /
    [pipeline/recursive_learning], the engine run under [solve], and
    the engine's statistics and search-shape histograms land in the
    registry (for the portfolio engine, merged across workers).  The
    preprocess stage additionally emits [preprocess/*] counters —
    [units], [pures], [subsumed], [strengthened], [failed_literals],
    [vars_eliminated], [clauses_removed].  With [trace], the same
    spans appear as [phase-begin]/[phase-end] events around the
    solver's own event stream.  A [Portfolio] engine whose options
    already carry a registry or sink keeps its own. *)

val solve_dimacs :
  ?metrics:Metrics.t ->
  ?trace:Trace.sink ->
  ?engine:engine ->
  ?pipeline:pipeline ->
  string ->
  report
(** Convenience: parse DIMACS text and solve. *)

(** Incremental front-end: run the simplification pipeline {e once},
    then serve many queries from one {!Session.t}, with per-query model
    lifting back to the original variable space.

    The pipeline is adapted for a formula that keeps growing:
    pure-literal elimination is disabled (its fixes are not implied, so
    they could contradict later clauses), bounded variable elimination
    is disabled (later clauses may constrain {e any} original variable,
    and an eliminated variable no longer exists in the simplified
    formula — the only safe frozen set would be every variable), while
    unit and failed-literal fixes are re-asserted inside the session.
    Callers who know which variables future clauses can mention may use
    {!Preprocess.run} with [frozen] directly instead.  Clauses and assumptions
    supplied later are rewritten through the equivalence substitution
    before reaching the solver, and satisfying models are completed per
    query.  Note [Unsat_assuming] cores are reported over the
    {e substituted} literals; activation literals (fresh variables) are
    never substituted. *)
module Incremental : sig
  type t

  val open_session :
    ?metrics:Metrics.t ->
    ?trace:Trace.sink ->
    ?config:Types.config ->
    ?pipeline:pipeline ->
    Cnf.Formula.t ->
    t
  (** Simplify once and open the session (default pipeline:
      {!full_pipeline}).  If simplification already refutes the formula,
      every later query returns [Unsat].  [metrics] / [trace] are
      attached to the session ({!Session.attach_metrics} /
      {!Session.set_tracer}), so every query contributes its per-query
      delta and trace span. *)

  val session : t -> Session.t
  (** The underlying session (e.g. for budgets, metrics or tracing). *)

  val new_var : t -> int
  val add_clause : t -> Cnf.Lit.t list -> unit
  val new_activation : t -> Cnf.Lit.t
  val add_clause_in : t -> group:Cnf.Lit.t -> Cnf.Lit.t list -> unit
  val release : t -> Cnf.Lit.t -> unit

  val solve :
    ?assumptions:Cnf.Lit.t list ->
    ?max_conflicts:int ->
    ?max_decisions:int ->
    t ->
    Types.outcome
  (** Models are models of the {e original} formula. *)

  val last_stats : t -> Types.stats
  val cumulative_stats : t -> Types.stats
  val queries : t -> int
  val preprocess_stats : t -> Preprocess.stats option
  val equivalence_merged : t -> int
  val recursive_learning_implicates : t -> int
end

(** Auto-tuned front-end: measure the instance with {!Autotune.extract},
    pick engine / preprocessing level / restart schedule / guidance from
    the published decision table ({!Autotune.select}, [docs/TUNING.md]),
    then run the ordinary {!solve} with the chosen recipe.  The plan is
    inspectable — [satsolve --explain-tuning] prints it — and tuning
    never changes answers, so auto-tuned verdicts validate and certify
    exactly like hand-configured ones. *)
module Auto : sig
  type plan = {
    features : Autotune.features;
    policy : Autotune.policy;
    guidance : Types.guidance option;
        (** present iff the policy asked for guidance ([G1]) and
            {!Guide.of_formula} produced a non-empty seeding; already
            attached to the engine's configuration *)
    engine : engine;
    pipeline : pipeline;
  }

  val plan :
    ?jobs:int -> ?probes:int -> ?config:Types.config -> Cnf.Formula.t -> plan
  (** Extract features (with [probes] lookahead probes, default 32) and
      apply the decision table at parallelism [jobs] (default 1).
      [config] supplies the fields the policy does not set (seed,
      deletion, budgets, proof logging, ...). *)

  val solve_plan :
    ?metrics:Metrics.t -> ?trace:Trace.sink -> plan -> Cnf.Formula.t -> report
  (** Run a previously computed plan.  With [metrics], first records
      the [autotune/*] and [guide/*] instruments. *)

  val solve :
    ?metrics:Metrics.t ->
    ?trace:Trace.sink ->
    ?jobs:int ->
    ?probes:int ->
    ?config:Types.config ->
    Cnf.Formula.t ->
    plan * report
  (** [plan] followed by [solve_plan]. *)
end
