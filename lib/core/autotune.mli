(** Per-instance auto-tuning: feature extraction and a transparent
    rule-based policy selector.

    The DAC-2000 premise is that EDA-generated instances carry
    exploitable structure; this module measures that structure cheaply
    — a syntactic gate-shape count plus a probe-measured
    propagation density (cf. Semenov et al.'s LEC hardness estimation)
    — and maps the measurements to a solving policy (engine and
    preprocessing level) through a small published decision table.

    The formulas and the table are a reimplementable contract in
    [docs/TUNING.md], pinned by [test/test_autotune.ml]: given the same
    formula, [extract] is deterministic and [select] is a pure function
    of the features, so [satsolve --explain-tuning] output can be
    checked against the document by hand.  Tuning is purely heuristic —
    it never changes an answer, only how fast the solver gets there. *)

type features = {
  nvars : int;
  nclauses : int;
  gate_like_frac : float;
      (** fraction of variables whose occurrence profile matches a
          Tseitin gate output: two binary clauses of one polarity plus
          a ternary clause of the other (either orientation) *)
  probe_density : float;
      (** mean trail growth per non-conflicting probe over the
          [min 32 nvars] highest-occurrence variables, divided by
          [nvars]; 0 when every probe conflicts *)
  probes_run : int;  (** probes actually executed *)
  extraction_time_s : float;  (** wall time spent in {!extract} *)
}

type engine_choice =
  | Sequential  (** one CDCL solver *)
  | Portfolio_race of int  (** diversified portfolio on [jobs] domains *)
  | Cube_conquer of int  (** lookahead cubes + [jobs] conquer workers *)

type preprocess_level =
  | Pre_off  (** skip preprocessing entirely *)
  | Pre_basic  (** unit/subsumption/strengthening, no elimination *)
  | Pre_full  (** the full pipeline, bounded variable elimination on *)

type policy = {
  engine : engine_choice;
  preprocess : preprocess_level;
  reason : string list;
      (** ids of the decision-table rules that fired, in dimension
          order (engine, preprocess) — e.g. [["E1"; "P2"]] *)
}

val extract : Cnf.Formula.t -> features
(** Measure the formula, probing at most 32 variables.  Deterministic:
    probe targets are the highest-occurrence variables, ties broken
    toward the lower index. *)

val select : ?jobs:int -> features -> policy
(** Apply the decision table ([docs/TUNING.md]) at parallelism [jobs]
    (default 1).  Pure function of its arguments. *)

val engine_label : engine_choice -> string
val preprocess_label : preprocess_level -> string

val feature_fields : features -> (string * float) list
(** The features as ordered [(name, value)] pairs — the layout used by
    [--explain-tuning] and the bench emitter. *)

val emit_metrics : Metrics.t -> features -> policy -> unit
(** Record the [autotune/*] instruments: the [runs] counter, feature
    gauges ([gate_like_frac], [probe_density], [extraction_seconds])
    and the per-engine choice counters.  See [docs/METRICS.md]. *)
