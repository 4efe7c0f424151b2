(** DRAT proof checking, backward trimming, and unsat cores.

    A CDCL run with [proof_logging] emits a {e DRAT} stream: clause
    {e additions} (learned or resolved clauses) interleaved
    with clause {e deletions} (database reductions, subsumption,
    elimination).  Every addition the pipeline emits is {e RUP} with
    respect to the clauses active when it appears: asserting the
    negation of every literal of the clause and unit-propagating yields
    a conflict.  Deletions never affect the soundness of an
    unsatisfiability certificate — they only reduce propagation power —
    so replaying the stream verifies, independently of the solver's
    internals, that an [UNSAT] answer is correct.

    Beyond forward {!check}ing, {!trim} replays the stream {e backward}
    from the final root conflict, drops every step the refutation never
    uses, and emits an LRAT-style certificate in which each kept step
    carries antecedent hints — clause ids that an independent checker
    ({!check_lrat}, or any off-the-shelf LRAT checker) can replay as
    unit propagations without search.  The original clauses that
    survive trimming are an {e unsat core}.

    The textual formats, emission rules, and checker exit codes are
    specified in [docs/PROOFS.md].  This is the certification mechanism
    modern solvers grew out of the clause-recording idea the paper
    describes in Sec. 4.1. *)

type step = Types.proof_step =
  | Add of Cnf.Clause.t * int array
  | Delete of Cnf.Clause.t
(** Re-export of {!Types.proof_step} under its natural name.  An
    addition's hints use the numbering of {!trim}: the formula's
    clauses are 1..n in order, then each non-tautological, non-empty
    addition takes the next id in stream order. *)

type verdict =
  | Valid_refutation
      (** all steps RUP and the clause set reaches a root conflict: the
          formula is certified unsatisfiable *)
  | Valid_derivation
      (** all steps RUP, no final conflict (the run ended SAT or the
          proof is a partial derivation) *)
  | Invalid_step of int
      (** the addition at this step index (0-based) is not RUP *)

val check : Cnf.Formula.t -> step list -> verdict
(** Forward check: validate every addition (RUP), apply every deletion,
    and report whether the surviving clause set is root-inconsistent.
    Deletions that match no active clause are ignored. *)

(** {1 Backward trimming to LRAT} *)

type lrat_line = {
  id : int;  (** clause id; originals are 1..n in formula order *)
  lits : Cnf.Clause.t;
  hints : int array;
      (** antecedent clause ids, in unit-propagation order, conflict
          last *)
}

type trim_result =
  | Trimmed of {
      lines : lrat_line list;
          (** kept additions in increasing-id order; the final line is
              the empty clause *)
      core : int list;
          (** original clause ids (1-based, ascending) used by the
              refutation — an unsat core *)
      kept_adds : int;  (** additions surviving the trim *)
      total_adds : int;  (** additions in the input stream *)
    }
  | Not_refutation
      (** the stream's final clause set has no root conflict; nothing
          to trim *)
  | Trim_invalid of int
      (** a needed addition (0-based step index) is not RUP: the proof
          is corrupt *)

val trim : Cnf.Formula.t -> step list -> trim_result
(** Backward-trim a DRAT stream: find the terminal root conflict,
    then walk the steps in reverse, verifying and hint-annotating only
    the additions the refutation actually uses.  Unused additions are
    dropped without validation (like [drat-trim]); use {!check} for a
    full forward validation.  Only active clauses are watched, the
    root closure persists between checks, and clauses already marked
    as needed propagate first, so [kept_adds] and [core] may differ
    from older trimmers on the same stream; docs/PROOFS.md gives the
    rules.

    A marked addition that carries hints is first checked by
    replaying them: under the negation of its clause, each hint must
    name an earlier active clause that is unit, and the last must
    conflict.  Then every hint clause is marked and the hints become
    the step's LRAT line unchanged.  When the replay fails the step is
    checked by RUP as if it had no hints, so [Trim_invalid] still means
    "not RUP", and a stream parsed from text trims as before. *)

val trim_hinted : Cnf.Formula.t -> step list -> trim_result * int
(** {!trim}, with the number of kept additions verified by replaying
    their own hints (0 unless [Trimmed]); the rest fell back to RUP.
    The count sits beside the result, not in [Trimmed], so exhaustive
    matches on [Trimmed]'s fields keep compiling. *)

val renumber :
  Cnf.Formula.t -> step list -> Cnf.Formula.t -> step list -> step list
(** [renumber f pre g steps] takes the steps of a solver given [g],
    whose hints number [g]'s clauses 1..m and the solver's additions
    from m+1 on, and numbers them for the stream [pre @ steps] over
    [f], where the steps [pre] turned [f] into [g].  Each clause of [g]
    takes the id of its most recent active copy after [pre], and the
    additions follow [pre]'s last id.  Hint arrays are rewritten in
    place; a step whose hints name a clause of [g] with no active copy
    loses them. *)

val core_clauses : Cnf.Formula.t -> int list -> Cnf.Clause.t list
(** Map core ids from {!trim} back to the formula's clauses. *)

val core_formula : Cnf.Formula.t -> int list -> Cnf.Formula.t
(** The unsat core as a formula over the same variable space. *)

val check_lrat : Cnf.Formula.t -> lrat_line list -> (unit, string) result
(** Independent linear-time check of a trimmed certificate: for each
    line, assume the negation of its literals and replay the hints in
    order — every hint must become unit (assert its literal) and the
    final hint must conflict; the last line must be the empty clause.
    No search, no watch lists: this is deliberately simple enough to
    re-implement from [docs/PROOFS.md] alone.  RAT (negative) hints are
    not supported — the pipeline never emits them. *)

(** {1 Text formats} *)

val drat_to_string : step list -> string
val write_drat : out_channel -> step list -> unit
val write_drat_file : string -> step list -> unit

val parse_drat : string -> step list
(** Parses the textual DRAT format ([d] prefix for deletions, clauses
    as 0-terminated DIMACS literal lists, [c] comment lines).  Raises
    [Failure] on malformed input. *)

val parse_drat_file : string -> step list

val lrat_to_string : lrat_line list -> string
val write_lrat : out_channel -> lrat_line list -> unit
val write_lrat_file : string -> lrat_line list -> unit

val parse_lrat : string -> lrat_line list
(** Parses textual LRAT ([<id> <lits> 0 <hints> 0]); deletion lines
    ([<id> d ...]) are accepted and ignored.  Raises [Failure] on
    malformed input. *)

val parse_lrat_file : string -> lrat_line list

(** {1 Convenience} *)

val solve_certified :
  ?config:Types.config -> Cnf.Formula.t -> Types.outcome * verdict
(** Solve with proof logging forced on and forward-check the emitted
    proof.  An [Unsat] outcome paired with anything but
    [Valid_refutation] indicates a solver defect. *)
