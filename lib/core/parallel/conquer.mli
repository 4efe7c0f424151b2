(** The "conquer" half of cube-and-conquer.

    {!module:Cube} turns a hard formula into a cover of cubes; this
    module farms the cubes out to [jobs] worker domains.  Each worker
    owns one incremental {!Session} on the full formula — pre-loaded
    with the units and refuted-prefix implicates lookahead already
    proved — and solves cubes as {e assumption queries}, so learned
    clauses, activities and phases carry over from cube to cube.  Cubes
    live in per-worker work-stealing deques: a worker pops its own
    front (split children stay hot in its session) and steals from the
    back of a neighbour when it runs dry (the oldest, coarsest cube).

    Strong learned clauses flow between workers through the
    {!Portfolio.Pool}; the exchange is sound because a clause learned
    under an assumption query is an implicate of the clause database
    alone (assumption literals carry dummy reasons and are never
    resolved away), hence valid in every other cube.

    Dynamic splitting: a cube whose query exhausts its conflict budget
    ([cutoff], doubled per generation) is split on the most active
    root-unassigned variable outside the cube and both halves requeued,
    until [max_splits] is reached — after which over-budget cubes run
    unbounded.  Refuting {e every} cube in the cover proves UNSAT; any
    SAT cube answers SAT (models are re-validated against the formula
    before being reported). *)

type options = {
  jobs : int;                (** number of conquer worker domains *)
  cube : Cube.options;       (** lookahead (generation) options *)
  config : Types.config;     (** base config; worker [i] reseeds it *)
  sharing : Portfolio.sharing;  (** clause-exchange policy *)
  cutoff : int;              (** base conflict budget per cube *)
  max_splits : int;          (** dynamic-split cap; then run unbounded *)
  timeout : float option;
      (** wall-clock seconds from the call; [Unknown "timeout"].  Becomes
          one absolute deadline passed to every cube query
          ({!Session.solve}); the first cube that answers [timeout] ends
          the run *)
  stop : bool Atomic.t option;
      (** caller-owned cancellation token (e.g. a service scheduler's
          job token), passed to every cube query: once the caller sets
          it the run winds down and reports [Unknown "interrupted"].
          The run also uses it as its own finish flag, so {e the token
          is set when the conquer phase ends}, whatever ended it.  A
          formula settled by lookahead alone leaves it untouched.
          [None] means a fresh private token *)
  metrics : Metrics.t option;
      (** per-worker registries merged in after the join, plus the
          [cube/*] counters and gauges (see docs/METRICS.md) *)
  trace : Trace.sink option;
      (** per-worker sinks absorbed after the join: [cube-emit],
          [cube-solve], [cube-split] and the usual solver events *)
}

val default_options : options
(** [jobs = Domain.recommended_domain_count ()], default cube options
    and sharing, cutoff 10_000 conflicts, 4096 splits, no timeout. *)

type result = {
  outcome : Types.outcome;
  lookahead : Cube.t;   (** the generator's output (cubes, units, ...) *)
  solved_cubes : int;   (** cubes settled definitively by workers *)
  splits : int;         (** dynamic splits performed *)
  pool_size : int;      (** clauses published to the exchange pool *)
  stats : Types.stats;  (** aggregate: lookahead + all workers *)
  time_seconds : float;
}

val solve : ?options:options -> Cnf.Formula.t -> result
(** Generate the cube cover, then conquer it.  If lookahead alone
    settles the formula (root refuted, all branches refuted, or
    propagation completed a model) no workers are spawned. *)
