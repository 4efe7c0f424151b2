(** CNF preprocessing — the [Preprocess()] step of Figure 2.

    Passes: unit propagation, pure-literal elimination, clause
    subsumption, self-subsuming resolution (clause strengthening),
    SatELite-style bounded variable elimination, and optional
    failed-literal probing.  Variable numbering is preserved; variables
    the preprocessor decides are recorded in {!simplified.fix}, and
    variables it {e eliminates by resolution} are recorded on the
    {!simplified.elim} stack that {!complete_model} replays.

    {2 One store, driven by queues}

    Every pass works on one clause store with per-literal occurrence
    lists, driven by queues rather than whole-formula rounds (Eén &
    Biere, SAT 2005):
    - every clause that enters the store — input clause, resolvent,
      strengthened or stripped clause — is {e touched}, and each touched
      clause is checked once for the clauses it subsumes or strengthens
      and for an older clause that subsumes or strengthens it;
    - fixing a literal [l] (a unit, a pure literal or a failed literal)
      deletes the clauses containing [l] and strips [¬l] from the rest;
    - the variables of a touched, removed or strengthened clause are
      queued for another pure-literal check and elimination attempt.
      The variable queue is drained in batches, cheapest variables
      (fewest occurrences) first;
    - with probing on, failed-literal probing runs on the live clauses
      after each batch, and its failed literals take the same fix path.

    Each clause carries a 63-bit literal signature, as in SatELite: a
    subsumption or strengthening candidate is rejected by signature
    before its literals are read, which changes what a check costs,
    never what it finds.

    Each step fixes or eliminates a variable, removes a clause or
    removes a literal, so the queues run dry without a round cap: [run]
    stops once a batch touches no variable and probing finds no failed
    literal.  The surviving clauses keep their store order.

    {2 Bounded variable elimination}

    A variable [v] is eliminated by replacing the clauses containing it
    with all non-tautological resolvents on [v] (Davis–Putnam
    resolution), {e bounded} so the clause database never grows: the
    elimination is committed only when the resolvent set is no larger
    than the set of clauses removed, no resolvent exceeds 8 literals,
    and neither polarity of [v] occurs more than 10 times.  Resolvents
    are touched clauses, so they are simplified against the rest of the
    store before the next elimination attempt.

    When [v] is the output of an AND/OR-shaped gate — one clause
    [(v ∨ m₁ ∨ … ∨ mₖ)] with a matching binary [(¬v ∨ ¬mᵢ)] for every
    [mᵢ] (or the mirror image on [¬v]) — elimination switches to
    {e definition substitution}: only gate × non-gate resolvents are
    generated, because non-gate × non-gate resolvents are implied by
    them.  Tseitin-encoded netlists consist almost entirely of such
    definitions, so substitution is what lets fanout gate variables be
    eliminated where the full resolvent product would blow the bound.

    Elimination is satisfiability-preserving but not model-preserving:
    a model of the simplified formula says nothing about an eliminated
    variable.  {!complete_model} therefore replays the elimination
    stack newest-first, choosing each eliminated variable's value so
    that every clause removed on its behalf is satisfied.

    {2 Proof emission}

    Every pass can certify its work: pass a [?proof] sink to [run] and
    the preprocessor emits a DRAT step stream — resolvent and
    strengthened-clause additions (each reverse-unit-propagation
    derivable from the clauses active when it appears) interleaved with
    deletions of the clauses each pass removes, ending with the empty
    clause when preprocessing itself refutes the formula.  Bounded
    variable elimination is fully covered: each commit adds all
    resolvents while both parent sides are still active, then deletes
    the parent clauses.  Only pure-literal fixes are outside the RUP
    fragment (they are blocked-clause-style RAT steps), so [run]
    rejects [pures:true] combined with [?proof]; with a sink installed
    [pures] simply defaults to [false].  See {!module:Proof} and
    [docs/PROOFS.md] for the contract. *)

type stats = {
  mutable units : int;
  mutable pures : int;
  mutable subsumed : int;
  mutable strengthened : int;
  mutable failed_literals : int;
  mutable eliminated : int;  (** variables removed by bounded elimination *)
  mutable elim_clauses_removed : int;
      (** clauses deleted by bounded elimination (the resolvents that
          replace them are counted in [elim_resolvents]) *)
  mutable elim_resolvents : int;
      (** resolvent clauses inserted by bounded elimination *)
}

type elimination = {
  evar : int;  (** the eliminated variable *)
  pos : Cnf.Clause.t list;
      (** clauses containing [evar] positively at elimination time *)
  neg : Cnf.Clause.t list;
      (** clauses containing [evar] negatively at elimination time *)
}
(** One frame of the elimination stack: everything {!complete_model}
    needs to reconstruct a value for [evar]. *)

type simplified = {
  formula : Cnf.Formula.t;
      (** simplified clause set over the same variables *)
  fix : (int * bool) list;
      (** values for variables the preprocessor decided (units, pures,
          failed literals) *)
  elim : elimination list;
      (** elimination stack, newest first — replayed by
          {!complete_model} in exactly this order *)
  stats : stats;
}

type result = Unsat | Simplified of simplified

val run :
  ?metrics:Metrics.t ->
  ?pures:bool ->
  ?probe_failed_literals:bool ->
  ?elim:bool ->
  ?frozen:int list ->
  ?proof:(Types.proof_step -> unit) ->
  ?deadline:float ->
  Cnf.Formula.t ->
  result
(** Defaults: pure literals and bounded variable elimination on;
    probing off; [frozen = []].  Unit propagation, subsumption and
    strengthening always run.  The elimination bounds are constants: at
    most 10 occurrences per polarity of a candidate, and no resolvent
    longer than 8 literals — long resolvents also make poor watch-list
    citizens.

    [frozen] lists variables bounded elimination must not touch.
    Freeze every variable that later clauses or assumptions may
    mention: an eliminated variable no longer occurs in the simplified
    formula, so constraining it afterwards would be silently
    meaningless.  [Sat.Session] growth variables and incremental
    assumption variables are the canonical frozen set; a session that
    may grow clauses over {e any} original variable must disable
    [elim] entirely (which freezes every variable).

    Disable [pures] when the formula will be extended later
    (incremental sessions): unlike units and failed literals, a pure
    literal's fixed value is merely satisfiability-preserving, not
    implied, so it must not be baked into a formula that can still
    grow.

    [proof] receives every DRAT step the passes emit, in order (see the
    proof-emission section above).  With [proof] set, [pures] defaults
    to [false] and passing [pures:true] raises [Invalid_argument].
    When [run] returns [Unsat] the emitted stream ends with the empty
    clause and is a complete, self-contained refutation of the input
    formula.

    [deadline] is an absolute {!Monotime.now_s} instant, checked before
    each variable visit and each probe; without it no clock is read.
    Once it has passed, [run] stops and returns the clauses simplified
    so far as [Simplified]: they are equisatisfiable with the input and
    {!complete_model} is exact for them, as for a finished run.

    [metrics] receives three timers, each one run per call: the seconds
    spent settling the fixed-literal and touched-clause queues
    (["preprocess/subsumption"]: unit propagation, subsumption and
    strengthening), visiting variables (["preprocess/elimination"]:
    pure literals and elimination attempts) and probing
    (["preprocess/probing"]).  Without it no clock is read for them. *)

val complete_model : simplified -> bool array -> bool array
(** Extends a model of the simplified formula to a model of the
    original: applies {!simplified.fix}, then replays the elimination
    stack newest-first, setting each eliminated variable to satisfy
    the clauses that were removed on its behalf.  The input array is
    not mutated; the result is grown if the stack mentions variables
    past its end. *)

val pp_stats : Format.formatter -> stats -> unit
(** One-line rendering of every counter, including
    [vars_eliminated]/[clauses_removed]/[resolvents_added] from
    bounded elimination. *)
