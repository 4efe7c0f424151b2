(** Query scheduler: admission control, per-query budgets, cooperative
    cancellation and per-tenant metrics rollup in front of one
    {!Sat.Exec} pool, which runs every admitted query.

    This is the daemon's engine room, usable without any socket in
    front of it (the benchmarks and tests drive it directly):

    - {!submit} answers an exact repeat from the {!Cache}'s result
      cache on the spot, hands any other query to the pool, or refuses
      it immediately — [Overloaded] when [max_queue] queries already
      wait for a domain (backpressure), [Draining] once shutdown has
      begun.  A cache hit never waits for, or is refused by, a full
      queue;
    - each pool domain serves queries through the {!Cache}: a grown
      query checks out the warm session holding its longest pooled
      prefix, anything else solves cold — and every session returns to
      the pool afterwards, including after a cancelled or timed-out
      query, with no cancellation state to clear;
    - every query owns one stop token from {!submit} on.  {!cancel}
      sets it (safe from any domain); the serving domain passes it and
      the query's deadline straight into {!Sat.Session.solve} (or
      {!Sat.Conquer}), whose search loop enforces both.  Nothing polls
      the clock on the query's behalf;
    - per-query solver metrics accumulate into a per-tenant
      {!Sat.Metrics} registry via the existing {!Sat.Metrics.merge_into},
      exposed by {!stats_json} (the [stats] verb payload). *)

type t

type answer = {
  outcome : Sat.Types.outcome;
  cached : bool;
  warm : bool;
  matched_prefix : int;
  time_s : float;
  conflicts : int;
  decisions : int;
}

type job
type submit_error = Overloaded | Draining

val create :
  ?jobs:int ->
  ?max_queue:int ->
  ?max_conflicts_cap:int ->
  ?cube_threshold:int ->
  ?autotune:bool ->
  ?cache:Cache.t ->
  unit ->
  t
(** Starts a {!Sat.Exec} pool of [jobs] domains, the only domains the
    scheduler ever uses.  Defaults: [jobs] =
    [Domain.recommended_domain_count () - 1] (at least 1), [max_queue]
    = 128 pending queries, no conflict cap, no decomposition, a fresh
    default {!Cache.create}.  [max_conflicts_cap] bounds every query's
    conflict budget (applied on top of the query's own, whichever is
    smaller) — the admission-control backstop against a tenant
    submitting unbounded work.

    With [cube_threshold], a query with at least that many clauses, no
    assumptions and no budget (neither its own nor a server cap)
    bypasses the warm-session pool and is decomposed by
    {!Sat.Conquer.solve} on the scheduler's own pool (group width
    [jobs], default lookahead depth, 10_000 conflicts before a cube
    splits).  The serving domain runs the cubes itself and idle pool
    domains join in, so a decomposed query never spawns a domain.
    Budgeted or assumption-carrying queries keep the exact semantics of
    the incremental path.  Results still land in the result cache; the
    query's stop token and deadline reach the lookahead and every cube
    query, so cancellation and deadlines stop the decomposed run the
    same way.

    With [autotune] (default off), each {e cold, unbudgeted} query is
    measured with {!Sat.Autotune.extract} and its fresh session gets
    the restart schedule and optional
    {!Sat.Guide.of_formula} seeding the decision table picks at jobs=1
    (docs/TUNING.md; the engine dimension stays the scheduler's own).
    Warm pool hits keep their configuration — carried-over solver
    state is the whole point of the pool — and budgeted queries keep
    exact budget semantics untouched.  The [autotuned] counter in
    {!stats_json} counts tuned queries. *)

val submit :
  t ->
  ?deadline:float ->
  on_done:(answer -> unit) ->
  Protocol.solve_params ->
  (job, submit_error) result
(** Queues a query, unless the result cache already holds its answer:
    then [on_done] runs in the caller's thread, with [cached = true],
    before [submit] returns.  Otherwise [on_done] runs in the pool
    domain that served it (callers bridge to their own thread; the
    socket server pushes to a completion queue).  Draining is checked
    first, then the cache, then the queue bound.  [deadline] is an absolute
    {!Sat.Monotime.now_s} instant: a query still queued when it passes
    answers [Unknown "timeout"] without solving, and a running query's
    search checks it after each conflict and answers
    [Unknown "timeout"]. *)

val cancel : t -> job -> unit
(** Sets the query's stop token.  Queued: it answers
    [Unknown "cancelled"] without solving.  Running: its search stops
    at the next loop iteration; the query answers [Unknown "cancelled"]
    and the session survives into the pool.  Finished: no effect. *)

val solve : t -> Protocol.solve_params -> (answer, submit_error) result
(** Blocking convenience over {!submit} — the in-process client used
    by benchmarks and tests. *)

val cache : t -> Cache.t

val set_draining : t -> unit
(** Stop admitting new queries ({!submit} answers [Draining]);
    already-queued and running queries complete normally. *)

val quiescent : t -> bool
(** No queued and no running queries. *)

val drain : t -> unit
(** {!set_draining} then block until {!quiescent}. *)

val shutdown : t -> unit
(** {!drain}, then shut the pool down.  The scheduler must not be used
    afterwards. *)

val stats_json : t -> Sat.Json.t
(** The [stats]-verb payload: service counters (queries, cancellations,
    timeouts, refusals, decomposed runs, queue depth high-water),
    {!Cache.stats_json}, and one merged {!Sat.Metrics.to_json} snapshot
    per tenant. *)
