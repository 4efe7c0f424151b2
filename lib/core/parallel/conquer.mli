(** The "conquer" half of cube-and-conquer.

    {!module:Cube} turns a hard formula into a cover of cubes; this
    module runs each cube as one task of an {!Exec.run} group of width
    [jobs].  Each slot of the group owns one incremental {!Session} on
    the full formula — made on the slot's first cube, pre-loaded with
    the units and refuted-prefix implicates lookahead already proved —
    and solves cubes as {e assumption queries}, so learned clauses,
    activities and phases carry over from cube to cube.  A split pushes
    both children into its own slot, so they stay hot in its session;
    idle participants steal the oldest, coarsest cube.

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
  jobs : int;
      (** the group's width: at most this many cubes run at once *)
  cube : Cube.options;       (** lookahead (generation) options *)
  config : Types.config;     (** base config; slot [i] reseeds it *)
  sharing : Portfolio.sharing;  (** clause-exchange policy *)
  cutoff : int;              (** base conflict budget per cube *)
  max_splits : int;          (** dynamic-split cap; then run unbounded *)
  timeout : float option;
      (** wall-clock seconds from the call; [Unknown "timeout"].  Becomes
          one absolute deadline checked once per lookahead node and
          passed to every cube query ({!Session.solve}); the first cube
          that answers [timeout] ends the run *)
  stop : bool Atomic.t option;
      (** caller-owned cancellation token (e.g. a service scheduler's
          job token), read once per lookahead node and passed to every
          cube query: once the caller sets it the run winds down and
          reports [Unknown "interrupted"].
          The run also uses it as its own finish flag, so {e the token
          is set when the conquer phase ends}, whatever ended it.  A
          formula settled by lookahead alone leaves it untouched.
          [None] means a fresh private token *)
  metrics : Metrics.t option;
      (** per-slot registries ({!Exec.metrics}) merged in after the
          join, plus the [cube/*] counters and gauges (see
          docs/METRICS.md) *)
  trace : Trace.sink option;
      (** per-slot sinks ({!Exec.trace}) absorbed after the join:
          [cube-emit], [cube-solve], [cube-split] and the usual solver
          events *)
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

val solve : ?exec:Exec.t -> ?options:options -> Cnf.Formula.t -> result
(** Generate the cube cover, then conquer it on [exec] (a service
    passes its own pool), or, without one, on a pool of [jobs - 1]
    domains made for the call.  If lookahead alone settles the formula
    (root refuted, all branches refuted, or propagation completed a
    model), or a stop or the deadline cuts it short, no cube runs. *)
