(** Incremental solving sessions (Sec. 6: iterative/incremental SAT).

    EDA workloads — BMC unrollings, per-fault ATPG, per-pair equivalence
    queries — solve long sequences of closely related instances.  A
    session keeps one {!Cdcl.t} alive across the whole sequence so that
    learned clauses, variable activities and saved phases transfer from
    query to query, instead of being rebuilt from scratch each time.

    A session supports, between [solve] calls:
    - growing the formula with {!add_clause} / {!add_formula} (new
      clauses are propagated at level 0 immediately and invalidate the
      cached model);
    - clause groups guarded by {e activation literals}
      ({!new_activation} / {!add_clause_in}): a group's clauses only bind
      in queries that assume its activation literal, and {!release}
      permanently disables the group via a unit clause;
    - per-call conflict/decision budgets and per-call statistics deltas
      ({!last_stats}), alongside the cumulative totals;
    - between queries, learned clauses that mention a released
      activation variable are dropped: the release unit satisfies them
      for good, so they only burden the watch lists. *)

type t

val create : ?config:Types.config -> unit -> t
(** An empty session (no variables, no clauses). *)

val of_formula : ?config:Types.config -> Cnf.Formula.t -> t
(** A session seeded with a snapshot of the formula's clauses. *)

val nvars : t -> int
val new_var : t -> int

val apply_guidance : t -> Types.guidance -> unit
(** Seeds the underlying solver's VSIDS activities and saved phases
    (see {!Cdcl.apply_guidance}).  Sessions allocate variables lazily,
    so guidance must be applied {e after} the variables it targets
    exist; call it again as the variable space grows (e.g. per BMC
    frame or per sweep cone).  Legal between [solve] calls. *)

val add_clause : t -> Cnf.Lit.t list -> unit
(** Adds a permanent clause; legal between [solve] calls.  Units are
    propagated at level 0 immediately; the cached model is invalidated. *)

val add_formula : t -> Cnf.Formula.t -> unit
(** Adds every clause of the formula, interpreted in the session's
    variable numbering (the variable space grows as needed). *)

(* --- activation groups -------------------------------------------------- *)

val new_activation : t -> Cnf.Lit.t
(** Allocates a fresh activation literal [a].  Clauses registered with
    [add_clause_in ~group:a] only bind in queries whose assumptions
    include [a]. *)

val add_clause_in : t -> group:Cnf.Lit.t -> Cnf.Lit.t list -> unit
(** [add_clause_in t ~group:a c] adds the guarded clause [¬a ∨ c].
    Raises [Invalid_argument] if [a] did not come from
    {!new_activation} of this session or was already released. *)

val release : t -> Cnf.Lit.t -> unit
(** Permanently disables a group by adding the unit clause [¬a].  The
    group's clauses become satisfied, and learned clauses mentioning the
    activation variable are dropped before the next query.  Releasing twice is a no-op. *)

val is_active : t -> Cnf.Lit.t -> bool
(** Whether the literal is a live (unreleased) activation literal. *)

(* --- queries ------------------------------------------------------------- *)

val solve :
  ?assumptions:Cnf.Lit.t list ->
  ?max_conflicts:int ->
  ?max_decisions:int ->
  ?stop:bool Atomic.t ->
  ?deadline:float ->
  t ->
  Types.outcome
(** One query.  [assumptions] typically include activation literals of
    the clause groups the query should see.  The budgets bound this call
    only; a budgeted [Unknown "budget"] leaves the session fully
    reusable.  Before searching, learned clauses polluted by groups
    released since the previous query are dropped.

    [stop] and [deadline] pass through to {!Cdcl.solve}: a caller-owned
    token that answers [Unknown "interrupted"] once set (from any
    domain), and an absolute {!Monotime.now_s} instant that answers
    [Unknown "timeout"] once passed.  This is how a SAT service cancels
    a query whose client went away, or that ran out of time.  Either
    way the session stays fully reusable (learned clauses, activations
    and variable order intact) and holds no cancellation state, so it
    can go straight back to a pool. *)

val minimize_assumptions :
  ?max_rounds:int ->
  ?max_conflicts:int ->
  t ->
  Cnf.Lit.t list ->
  Cnf.Lit.t list option
(** Shrinks an assumption set to a (locally) minimal subset under which
    the formula is still unsatisfiable — the core-driven assumption
    minimization used by incremental BMC and ATPG loops to turn a
    failing query into a small explanation.

    Returns [None] when the formula is satisfiable under [assumptions]
    (or the first query exhausts its budget), [Some []] when the formula
    is unsatisfiable outright, and otherwise [Some core] with
    [core ⊆ assumptions] (input order preserved) such that the formula
    is UNSAT under [core].

    The procedure first iterates the solver's [Unsat_assuming] core to a
    fixpoint (at most [max_rounds] extra queries, default 4) — re-solving
    under the previous core alone typically shrinks it — then runs one
    destructive pass dropping each surviving literal in turn, keeping a
    literal only when the query without it is SAT or exhausts its
    budget.  [max_conflicts] bounds {e each individual query}; with a
    budget, the result is still a correct core but may not be locally
    minimal.  Every query goes through {!solve}, so pruning, metrics
    and {!queries} accounting all apply. *)


val model : t -> bool array option
(** The model cached by the last satisfiable [solve], or [None] if the
    last query was not SAT or the formula changed since ([add_clause],
    [add_formula], [add_clause_in], [release] all invalidate it). *)

val queries : t -> int
(** Number of [solve] calls so far. *)

val last_stats : t -> Types.stats
(** Statistics delta of the most recent query only. *)

(* --- observability ------------------------------------------------------- *)

val attach_metrics : t -> Metrics.t -> unit
(** Points the session at a metric registry: the underlying solver gets
    the standard {!Metrics.solver_instruments}, and every subsequent
    query increments ["session/queries"], observes its duration in the
    ["session/query_time_s"] histogram, and {e adds} its
    {!last_stats}-style delta into the ["solver/*"] counters — so one
    registry can aggregate across several sessions (the generalization
    of {!Types.diff_stats} to whole workloads). *)

val metrics : t -> Metrics.t option
(** The registry attached with {!attach_metrics}, if any. *)

val set_tracer : t -> Trace.sink option -> unit
(** Forwards to {!Cdcl.set_tracer} on the underlying solver; each query
    then appears in the trace as a [solve-begin] … [solve-end] span. *)

val cumulative_stats : t -> Types.stats
(** Totals across the session's lifetime (snapshot). *)

val raw : t -> Cdcl.t
(** The underlying solver, for plugins and diagnostics.  Mutating it
    behind the session's back voids the cached-model guarantees. *)
