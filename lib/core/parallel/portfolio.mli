(** Parallel portfolio solving with learned-clause sharing.

    Section 6 of the paper identifies randomization of the branching
    heuristic and of the restart policy as one of the most effective
    levers on hard EDA instances.  The modern realization is a
    {e portfolio}: [jobs] diversified CDCL workers race on the same
    formula as one {!Exec.run} group of width [jobs], the first
    definitive answer (SAT / UNSAT) wins, and workers exchange strong
    learned clauses.

    Sharing policy: a worker {e exports} a learned clause when its
    literal-block distance and length are within the {!sharing} bounds,
    into a mutex-protected append-only pool; every worker {e imports}
    the clauses published by the others at its level-0 boundaries
    (search entry and every restart) via {!Cdcl.import_clause}.  The
    import is sound because all workers solve the {e same} clause set
    (identical formula, and imported clauses are themselves implicates),
    so every exported clause is an implicate of the shared formula.

    Determinism: at [jobs = 1] the one worker runs on the caller's
    domain with sharing off (it has no peer), so it gives the same
    outcome and the same statistics as [Cdcl.solve] on the same config
    and seed, and existing deterministic experiments are unaffected.

    Satisfiable answers are validated against the formula before being
    reported; unsatisfiable answers can be cross-checked against
    {!Proof.solve_certified} (the property-test suite does). *)

type sharing = {
  share : bool;      (** master switch for clause exchange *)
  max_lbd : int;     (** export clauses with LBD at most this (glue bound) *)
  max_len : int;     (** ... and at most this many literals *)
  capacity : int;    (** pool cap; further exports are dropped *)
}

val default_sharing : sharing
(** [share = true], LBD ≤ 6, length ≤ 30, capacity 20_000.  The LBD
    bound is a policy knob, not a constant: [satsolve --share-lbd]
    threads a user-chosen bound through both the portfolio and the
    cube-and-conquer workers ({!module:Conquer}). *)

(** The shared clause pool behind the exchange: a mutex-protected
    append-only array of exported clauses, each tagged with its origin.
    Each importer keeps a private read cursor, so an import takes
    exactly the entries published since its previous level-0 boundary,
    and skips its own. *)
module Pool : sig
  type t

  val create : int -> t
  (** [create capacity] — entries published beyond [capacity] are
      counted as dropped, not stored. *)

  val size : t -> int
  val dropped : t -> int
end

val share :
  sharing -> Pool.t -> self:int -> ?trace:Trace.sink -> Cdcl.t -> unit
(** Installs the exchange on one solver (nothing when [share] is off):
    its learn hook publishes each learnt clause within the bounds,
    tagged with origin [self] (plus an [export] event on [trace]), and
    its restart hook imports the others' clauses at every level-0
    boundary.  Portfolio and {!module:Conquer} workers both use it. *)

val validate_sat : Cnf.Formula.t -> Types.outcome -> Types.outcome
(** A [Sat] model that falsifies a clause of the formula becomes
    [Unknown "model failed validation"]; other outcomes pass through. *)

type options = {
  jobs : int;
      (** number of workers: the group's width, run on a pool of
          [jobs - 1] domains plus the caller *)
  config : Types.config;     (** base configuration (worker 0 verbatim) *)
  sharing : sharing;
  timeout : float option;
      (** wall-clock seconds from the call; [Unknown "timeout"].  Becomes
          one absolute deadline that every worker's search checks after
          each conflict ({!Cdcl.solve}), so no domain watches the clock *)
  metrics : Metrics.t option;
      (** each worker observes into its slot's registry ({!Exec.metrics},
          standard {!Metrics.solver_instruments}), merged into this one
          after the join; then the aggregate statistics are added and
          the [portfolio/jobs], [portfolio/pool_size],
          [portfolio/pool_dropped] and [portfolio/winner] metrics set *)
  trace : Trace.sink option;
      (** each worker emits into its slot's sink ({!Exec.trace}, tagged
          with the slot; plus an [export] event per shared clause),
          absorbed into this one after the join, so {!Trace.merged} /
          {!Trace.write_file} yield a time-ordered interleaving that is
          monotone per worker *)
}

val default_options : options
(** [jobs = Domain.recommended_domain_count ()], default config and
    sharing, no timeout, no observability. *)

val diversify : base:Types.config -> int -> Types.config
(** The configuration worker [i] runs: worker 0 is [base] unchanged;
    workers [i > 0] perturb the random seed, the restart policy and the
    random-decision frequency (branching-order randomization, Sec. 6),
    and alternate the phase-saving polarity source. *)

type worker_report = {
  worker_config : Types.config;
  worker_outcome : Types.outcome;
  worker_stats : Types.stats;
      (** includes [exported] / [imported] / [interrupts] counters *)
}

type result = {
  outcome : Types.outcome;      (** the winning answer *)
  winner : int option;          (** index of the first definitive worker *)
  per_worker : worker_report array;
  stats : Types.stats;          (** aggregate over all workers *)
  pool_size : int;              (** clauses published to the shared pool *)
  time_seconds : float;
}

val solve : ?options:options -> Cnf.Formula.t -> result
(** Races the workers and joins them all; the caller runs workers too.
    Every worker's search reads one shared stop token, and the first
    worker with a definitive answer sets it, so the losers answer
    [Unknown "interrupted"] at their next loop iteration.  The call
    returns that answer, or [Unknown "timeout"] when the deadline ends
    the race first, or worker 0's [Unknown] when every worker gave up
    for another reason. *)
