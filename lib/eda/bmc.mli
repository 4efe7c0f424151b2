(** Bounded model checking of sequential circuits (Sec. 3, Biere et
    al. [5]).

    The transition relation is unrolled frame by frame into one
    incremental SAT {!Sat.Session}; the safety property ("output [bad]
    never rises") is queried per bound under an assumption, so frames
    are shared across bounds and learned clauses, variable activities
    and saved phases persist from bound to bound. *)

type result =
  | Counterexample of bool array list
      (** primary-input vector per frame, frame 0 first; the property
          fails in the last frame *)
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
          incremental, quadratic when re-encoding from scratch *)
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

    [incremental] (default [true]) extends one session across bounds —
    reaching bound k encodes each frame exactly once.  With
    [incremental:false] every bound rebuilds a fresh solver and
    re-encodes frames [0..k] — the from-scratch reference mode the
    Section 6 comparison benchmarks against.

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
(** Which frames does "[bad] is unreachable in exactly [bound] steps"
    actually depend on?  Re-encodes frames [0..bound-1] into a fresh
    session with each frame's transition clauses guarded by an
    activation literal, then runs {!Sat.Session.minimize_assumptions}
    over the activation literals plus the final frame's [bad]: the
    activations surviving in the minimized core name the frames the
    refutation needs (often a suffix — earlier frames' logic is
    irrelevant once the reachable-state sleeve has stabilized).

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
    own incremental session across increasing k, so each transition
    frame is encoded exactly once per obligation. *)
