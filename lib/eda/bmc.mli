(** Bounded model checking of sequential circuits (Sec. 3, Biere et
    al. [5]).

    The transition relation is unrolled frame by frame into one
    {!Aig} manager ({!Aig.build_from}): frame 0's latch inputs are the
    init constants and frame [k+1]'s are frame [k]'s next-state edges,
    so the constants fold through the early frames and structurally
    equal logic is shared across frames.  The safety property ("output
    [bad] never rises") is queried once per bound under an assumption
    on one incremental {!Sat.Session} through {!Aig.Session_cnf}, which
    emits only the cone of each queried [bad]: frames are shared across
    bounds, and learned clauses, variable activities and saved phases
    persist from bound to bound. *)

type result =
  | Counterexample of bool array list
      (** primary-input vector per frame, frame 0 first; the property
          fails in the last frame.  An input outside the cone of the
          failing [bad] is a don't-care and reads [false]. *)
  | No_counterexample
      (** up to the requested bound *)

type report = {
  result : result;
  bound_reached : int;
  per_bound_conflicts : (int * int) list;  (** (k, conflicts spent at k) *)
  per_bound_stats : (int * Sat.Types.stats) list;
      (** per-query statistics deltas, one row per bound *)
  total_stats : Sat.Types.stats;  (** summed across all bounds *)
  frames_encoded : int;
      (** transition-relation copies built: [bound_reached] when
          incremental, quadratic when unrolling from scratch *)
  time_seconds : float;
  timed_out : bool;
      (** the wall clock fired: [result] is [No_counterexample] only up
          to [bound_reached] *)
}

val check :
  ?metrics:Sat.Metrics.t ->
  ?trace:Sat.Trace.sink ->
  ?config:Sat.Types.config ->
  ?bad_output:string ->
  ?incremental:bool ->
  ?timeout:float ->
  max_bound:int ->
  Circuit.Sequential.t ->
  report
(** [bad_output] (default ["bad"]) names the property output in the
    sequential circuit's combinational part.

    [incremental] (default [true]) extends one unrolling and its
    session across bounds — reaching bound k builds each frame exactly
    once.  With [incremental:false] every bound unrolls frames [0..k]
    into a fresh manager and session — the from-scratch reference mode
    the Section 6 comparison benchmarks against.  Either way each bound
    makes exactly one {!Sat.Session.solve}, even when [bad] folds to a
    constant.

    [timeout] bounds the whole run in wall-clock seconds.  It becomes
    one absolute deadline, computed once and passed to every frame
    query ({!Sat.Session.solve} [?deadline]); no domain watches the
    clock.  The first query past the deadline answers
    [Unknown "timeout"] and ends the run: it is counted in the
    statistics ([interrupts] counter) and the report carries
    [timed_out = true] with all per-bound statistics intact, the
    timed-out bound included.

    [metrics] attaches a registry: every underlying session contributes
    its per-query deltas, each bound's wall time (encode + solve) lands
    in the [bmc/bound_time_s] histogram, [bmc/bound] tracks the last
    completed bound, and [bmc/frames_encoded] mirrors the report field.
    [trace] attaches an event sink to every underlying solver. *)

val explain_bound :
  ?config:Sat.Types.config ->
  ?bad_output:string ->
  bound:int ->
  Circuit.Sequential.t ->
  int list option
(** Which state links does "[bad] is unreachable in exactly [bound]
    steps" actually depend on?  Unrolls frames [0..bound-1] into a
    fresh manager with each frame's latch inputs fresh, tied to the
    previous frame's next state (frame 0's to the init values) by
    equivalence clauses in that frame's activation group, then runs
    {!Sat.Session.minimize_assumptions} over the activation literals
    plus the final frame's [bad]: the activations surviving in the
    minimized core name the frames whose incoming state link the
    refutation needs (often a suffix — earlier links are irrelevant
    once the reachable-state sleeve has stabilized).  The last frame's
    link is always among them unless [bad] is unsatisfiable from every
    state.

    Returns [None] when a counterexample of this length exists, and
    [Some frames] (ascending frame indices, possibly empty) otherwise.
    Raises [Invalid_argument] for [bound < 1]. *)

type induction_result =
  | Proved of int
      (** the property holds at every depth; the argument is the
          induction length k that closed the proof *)
  | Refuted of bool array list
      (** a real counterexample (input vectors per frame) *)
  | Bound_reached
      (** neither proved nor refuted within [max_k] *)

val prove_inductive :
  ?metrics:Sat.Metrics.t ->
  ?config:Sat.Types.config ->
  ?bad_output:string ->
  ?max_k:int ->
  Circuit.Sequential.t ->
  induction_result
(** Simple k-induction (sound, incomplete: no state-uniqueness
    constraints).  Where bounded checking can only say "no
    counterexample up to k", an inductive property is certified for
    {e all} depths — the natural unbounded extension of the BMC usage
    the paper surveys.  Both the base and the step obligation keep their
    own unrolling and session across increasing k — the step frames
    start from fresh latch inputs instead of the init constants — so
    each frame is built exactly once per obligation. *)
