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
  ?deadline:float ->
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
    solver's own event stream.

    [deadline] (an absolute {!Monotime.now_s} instant) is checked
    before each pipeline stage and between preprocessing's variable
    visits ({!Preprocess.run}), and handed, like [metrics] and [trace],
    straight to the engine; equivalence reasoning and recursive
    learning run to their end once started; once it passes, the outcome is
    [Unknown "timeout"] and a proof-producing run reports the steps
    logged so far. *)

val solve_dimacs :
  ?metrics:Metrics.t ->
  ?trace:Trace.sink ->
  ?engine:engine ->
  ?pipeline:pipeline ->
  string ->
  report
(** Convenience: parse DIMACS text and solve. *)

(** Auto-tuned front-end: measure the instance with {!Autotune.extract},
    pick the engine and preprocessing level from
    the published decision table ({!Autotune.select}, [docs/TUNING.md]),
    then run the ordinary {!solve} with the chosen recipe.  The plan is
    inspectable — [satsolve --explain-tuning] prints it — and tuning
    never changes answers, so auto-tuned verdicts validate and certify
    exactly like hand-configured ones. *)
module Auto : sig
  type plan = {
    features : Autotune.features;
    policy : Autotune.policy;
    engine : engine;
    pipeline : pipeline;
  }

  val plan : ?jobs:int -> ?config:Types.config -> Cnf.Formula.t -> plan
  (** Extract features and apply the decision table at parallelism
      [jobs] (default 1).  [config] (default {!Types.default}) is the
      engine's solver configuration, restarts included: the table
      picks only the engine and the pipeline. *)

  val solve_plan :
    ?metrics:Metrics.t -> ?trace:Trace.sink -> ?deadline:float -> plan ->
    Cnf.Formula.t -> report
  (** Run a previously computed plan.  With [metrics], first records
      the [autotune/*] instruments. *)

  val solve :
    ?metrics:Metrics.t ->
    ?trace:Trace.sink ->
    ?deadline:float ->
    ?jobs:int ->
    ?config:Types.config ->
    Cnf.Formula.t ->
    plan * report
  (** [plan] followed by [solve_plan]. *)
end
