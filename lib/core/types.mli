(** Shared types for the solver family: configuration knobs, statistics,
    and outcomes.

    Every technique named in Sections 4 and 6 of the paper is a
    configuration value here, so experiment ablations are pure config
    changes. *)

type heuristic =
  | Vsids          (** conflict-driven variable activity (default) *)
  | Dlis           (** dynamic largest individual sum *)
  | Moms           (** maximum occurrences in minimum-size clauses *)
  | Jeroslow_wang  (** static 2^-|c| literal weights *)
  | Fixed_order    (** lowest-index unassigned variable *)
  | Random_order   (** uniformly random unassigned variable *)

type restart_policy =
  | No_restarts
  | Luby of int               (** Luby sequence scaled by the base *)
  | Geometric of int * float  (** first limit, growth factor *)

type deletion_policy =
  | No_deletion
  | Size_bounded of int
      (** delete learned clauses larger than the bound *)
  | Relevance of int * int
      (** [Relevance (size_bound, r)]: delete learned clauses larger than
          [size_bound] once more than [r] of their literals are unassigned
          (relevance-based learning, Sec. 4.1 property 3) *)
  | Lbd_bounded of int
      (** keep only "glue" clauses whose literal-block distance (number
          of distinct decision levels at learning time) is within the
          bound — the modern refinement of relevance-based deletion *)
  | Activity_halving
      (** periodically delete the less active half (modern default) *)

type guidance = {
  seed_activity : (int * float) list;
      (** [(var, activity)] seeds in [0, 1]; applied scaled to the
          solver's current activity ceiling so seeded variables are
          visited first but conflict-driven bumps can still overtake
          them.  Out-of-range variables are ignored. *)
  seed_phase : (int * bool) list;
      (** [(var, phase)] initial saved phases — the polarity the solver
          tries first when it decides on [var] *)
}
(** Branching advice consumed by {!Cdcl.apply_guidance}; the sweep
    seeds each newly emitted cone with it ([Aig.Session_cnf.lit_of]).
    Purely heuristic: guidance never changes answers, only the order in
    which the search visits them.  See [docs/TUNING.md]
    ("Application semantics"). *)

type config = {
  heuristic : heuristic;
  restarts : restart_policy;
  deletion : deletion_policy;
  phase_saving : bool;
  chronological : bool;
      (** force chronological backtracking (ablation of Sec. 4.1
          property 1); learned clauses remain asserting *)
  random_seed : int;
  random_decision_freq : float;
      (** probability of a random decision (randomization, Sec. 6) *)
  max_conflicts : int option;  (** budget; exceeded -> [Unknown] *)
  max_decisions : int option;
  proof_logging : bool;
      (** record every learned clause so {!module:Proof} can replay the
          derivation as a reverse-unit-propagation (RUP) proof *)
}

val default : config
(** Modern defaults: VSIDS, Luby 100 restarts, activity-based deletion,
    minimization, phase saving, no randomness. *)

val grasp_like : config
(** A GRASP-style configuration: DLIS-flavoured decisions, geometric
    restarts off, relevance-based deletion. *)

type stats = {
  mutable decisions : int;
  mutable propagations : int;
  mutable conflicts : int;
  mutable restarts_done : int;
  mutable learned : int;
  mutable learned_literals : int;
  mutable deleted : int;
  mutable max_level : int;
  mutable nonchrono_backjumps : int;
      (** conflicts whose backjump skipped at least one level *)
  mutable skipped_levels : int;
      (** total decision levels skipped by non-chronological backtracking *)
  mutable exported : int;
      (** learned clauses handed to an external consumer (clause sharing) *)
  mutable imported : int;
      (** foreign clauses accepted through {!Cdcl.import_clause} *)
  mutable interrupts : int;
      (** solve calls ended by their stop token ([Unknown "interrupted"])
          or their deadline ([Unknown "timeout"]); see {!Cdcl.solve} *)
}

val mk_stats : unit -> stats
val pp_stats : Format.formatter -> stats -> unit

val copy_stats : stats -> stats
(** Independent snapshot of a (mutable) statistics record. *)

val diff_stats : stats -> stats -> stats
(** [diff_stats now before] is the per-call delta between two snapshots
    of the same cumulative counter set: counters are subtracted
    field-wise; [max_level] — a high-water mark rather than a counter —
    is taken from [now]. *)

val add_stats_into : stats -> stats -> unit
(** [add_stats_into acc d] accumulates [d] into [acc] (counters add,
    [max_level] takes the max) — for totalling per-call deltas across
    solvers or queries. *)

type proof_step =
  | Add of Cnf.Clause.t * int array
      (** the clause was derived (learned, resolved, …) and
          joins the active clause set; every addition the pipeline emits
          is RUP over the clauses active when it appears.  The array
          holds the step's LRAT hints — ids of the clauses that derive
          it by unit propagation, conflict last — or is empty when the
          producer gives none.  Hints are untrusted: {!Proof.trim}
          verifies them and falls back to RUP when they fail. *)
  | Delete of Cnf.Clause.t
      (** the clause leaves the active clause set (database reduction,
          subsumption, elimination); deletions never affect soundness of
          an unsatisfiability certificate, only propagation power *)
(** One step of a clausal DRAT proof.  Lives here (rather than in
    {!module:Proof}) so {!module:Cdcl} and {!module:Preprocess} can emit
    steps without depending on the checker.  See [docs/PROOFS.md] for
    the full certification contract. *)

val pp_proof_step : Format.formatter -> proof_step -> unit

type outcome =
  | Sat of bool array
      (** satisfying assignment, indexed by variable; unconstrained
          variables default to [false] *)
  | Unsat
  | Unsat_assuming of Cnf.Lit.t list
      (** unsatisfiable under the given assumptions; carries a subset of
          the assumptions sufficient for the conflict *)
  | Unknown of string
      (** resource budget exhausted (the argument says which) *)

val pp_outcome : Format.formatter -> outcome -> unit

val is_sat : outcome -> bool
val model_exn : outcome -> bool array
(** Raises [Invalid_argument] when the outcome is not [Sat]. *)
