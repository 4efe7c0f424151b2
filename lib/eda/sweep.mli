(** SAT sweeping as a fraiging pipeline (Sec. 3 / Sec. 6 — the
    combination of structural methods with an incrementally-used SAT
    solver behind [16, 25]).

    Both circuits are structurally hashed into one AIG over shared
    inputs, so all syntactically common logic merges for free and the
    two-level rewriting rules do a bounded cleanup.  The pipeline then
    rebuilds the graph inputs-outward into a {e functionally reduced}
    AIG: 62-way bit-parallel random simulation, stored as one flat
    [int array] column per simulation word indexed by node id,
    partitions nodes into candidate-equivalence classes (up to
    complementation) keyed by the [words] seed columns, which never
    change.  A fresh node's representative is the oldest class member
    whose signature matches on every column; it is checked against
    the node with a query on one incremental {!Sat.Session}:
    each node's Tseitin definition is emitted lazily as permanent
    clauses, and a query assumes only the pair's two literals.  A
    proven candidate is merged — every later node is built over the
    representative, so the miter shrinks as sweeping proceeds; a
    refuting counterexample sets the next bit of the open simulation
    word (the rest stay random) and only that column is resimulated,
    which splits the pair for good and rehashes no class; a
    budget-limited candidate is skipped, not fatal.  The output pairs
    usually collapse structurally; any residue falls to final
    (unbudgeted) SAT queries. *)

type phase_times = {
  simulate_s : float;  (** bit-parallel simulation (seeding + resimulation) *)
  refine_s : float;    (** candidate-class bookkeeping: seeding and lookups *)
  prove_s : float;     (** incremental SAT queries *)
  total_s : float;     (** whole check, wall clock *)
}

type stats = {
  aig_nodes : int;  (** merged structural AIG, before sweeping *)
  fraig_nodes : int;  (** live nodes of the functionally reduced AIG *)
  simulation_words : int;
      (** the [words] seed words plus the packed counterexample words,
          one per {!Circuit.Simulate.word_width} refinement rounds *)
  classes : int;  (** classes that attracted at least one candidate *)
  candidates : int;  (** candidate pairs submitted to the prover *)
  merges : int;  (** candidates proven and merged *)
  refuted : int;  (** candidates refuted by a counterexample *)
  skipped : int;  (** candidates abandoned on a per-query budget *)
  refinement_rounds : int;
      (** refuting counterexamples, each packed into one bit of the open
          word and resimulated over that one column *)
  sat_calls : int;
  decisions : int;
  conflicts : int;
}

type report = {
  verdict : Verdict.t;
  stats : stats;
  times : phase_times;
  solver_stats : Sat.Types.stats option;
}

val check :
  ?config:Sat.Types.config ->
  ?words:int ->
  ?seed:int ->
  ?candidate_conflicts:int ->
  ?jobs:int ->
  ?metrics:Sat.Metrics.t ->
  ?trace:Sat.Trace.sink ->
  Circuit.Netlist.t -> Circuit.Netlist.t -> report
(** [words] (default 4) random simulation words seed the candidate
    classes; [candidate_conflicts] (default 20_000) bounds each
    candidate query — exhausted candidates are skipped, never wrong.
    Each query's newly emitted cone starts at the session's activity
    ceiling ({!Aig.Session_cnf.lit_of}), so its search branches there
    first.
    With [jobs] at 1 (the default) final output queries run under
    [config]'s own budgets only, so a definite verdict is definite.
    With [jobs > 1] the final queries run under the candidate budget
    and a residual hard pair escalates to cube-and-conquer
    ({!Sat.Conquer}) on a standalone Tseitin encoding of its two output
    cones, decomposed across [jobs] worker domains (counted by the
    [sweep/cube_fallbacks] metric).  [metrics] attaches the registry to
    the session (standard [solver/*] instruments) and fills the
    [sweep/*] counter group and the [sweep/simulate], [sweep/refine]
    and [sweep/prove] phase timers (schema: docs/METRICS.md). *)
