(** Metrics registry: counters, gauges, fixed-bucket histograms and
    phase timers, snapshotted to a versioned JSON document.

    A registry is a cheap bag of named instruments.  The solver family
    threads an optional registry through {!Cdcl}, {!Session},
    {!Portfolio} and {!Solver}; when none is attached the hot paths pay
    a single option check.  Registries are {e not} thread-safe — the
    portfolio gives each worker its own and merges them when the race
    settles ({!merge_into}).

    The JSON encoding ({!to_json}) is the stable surface consumed by
    the CLI tools' [--metrics] flag and the bench emitters; its contract
    (field names, bucket layouts, versioning policy) is documented in
    [docs/METRICS.md].  {!of_json} restores a snapshot, and the test
    suite pins the round trip. *)

type t
(** A metric registry. *)

val create : unit -> t

val schema_version : int
(** Version of the JSON encoding; bumped on any incompatible change. *)

val schema_name : string
(** The [schema] discriminator field value, ["satreda-metrics"]. *)

(** {1 Counters} — monotonically increasing integers. *)

type counter

val counter : t -> string -> counter
(** Registers (or retrieves) the counter [name].  Raises
    [Invalid_argument] if [name] exists with a different kind. *)

val incr : ?by:int -> counter -> unit
val set_counter : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} — last-or-maximum observed value. *)

type gauge

val gauge : t -> string -> gauge
val set_gauge : gauge -> float -> unit

val max_gauge : gauge -> float -> unit
(** Raise the gauge to [v] if larger (high-water marks). *)

val gauge_value : gauge -> float

(** {1 Histograms} — fixed inclusive upper-bound buckets
    (Prometheus-style [le]), plus one overflow bucket. *)

type histogram

val histogram : t -> string -> bounds:float array -> histogram
(** Registers histogram [name] with the given strictly-increasing
    bucket bounds.  Re-registration with identical bounds returns the
    existing histogram; different bounds raise [Invalid_argument]. *)

val observe : histogram -> float -> unit
val observe_int : histogram -> int -> unit

val bucket_index : float array -> float -> int
(** [bucket_index bounds v] is the index of the bucket [v] lands in:
    the first index [i] with [v <= bounds.(i)], or [Array.length
    bounds] for the overflow bucket.  Exposed so tests can pin the
    boundary convention. *)

val histogram_total : histogram -> int
val histogram_sum : histogram -> float

val histogram_counts : histogram -> int array
(** Copy of the per-bucket counts; length [Array.length bounds + 1]. *)

val histogram_bounds : histogram -> float array

(** {1 Phase timers} — cumulative wall time per named phase, measured
    on the {!Monotime} clock. *)

type timer

val timer : t -> string -> timer

val phase_begin : t -> string -> unit
val phase_end : t -> string -> unit
(** [phase_end] without a matching [phase_begin] is a no-op. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Runs the thunk, adding its duration to the timer (also on
    exceptions). *)

val add_time : t -> string -> float -> unit
(** [add_time t name s] adds one run of [s] seconds to the timer: for
    durations a caller summed over many short intervals itself. *)

val timer_seconds : timer -> float

(** {1 Solver instruments} — the standard search-shape histograms. *)

type solver_instruments = {
  lbd : histogram;  (** LBD of each learned clause *)
  backjump : histogram;
      (** decision levels unwound per conflict (backjump length) *)
  trail : histogram;  (** trail depth at each conflict *)
}

val solver_instruments : t -> solver_instruments
(** Registers ["solver/lbd"], ["solver/backjump_levels"] and
    ["solver/trail_depth"] with the standard bucket layouts and returns
    them, ready to hand to [Cdcl.set_instruments]. *)

val lbd_bounds : float array
val backjump_bounds : float array
val trail_bounds : float array

val time_bounds : float array
(** Standard per-query duration buckets (seconds), shared by the BMC
    per-bound and ATPG per-fault histograms. *)

(** {1 Bridging the legacy statistics record} *)

val record_stats : t -> Types.stats -> unit
(** Set the ["solver/*"] counters to the (cumulative) values in the
    record — for one-shot solves. *)

val add_stats : t -> Types.stats -> unit
(** Accumulate a per-query {!Types.diff_stats} delta into the
    ["solver/*"] counters — for sessions solving many queries, possibly
    across several underlying solvers. *)

(** {1 Snapshots} *)

val merge_into : into:t -> t -> unit
(** Fold [src] into [into]: counters and histograms add, gauges take
    the maximum, timers add.  Histograms present in both must have
    identical bounds. *)

val to_json : ?tool:string -> t -> Json.t
(** Versioned snapshot.  Metric names are emitted sorted, so two
    registries holding the same values produce identical bytes. *)

val of_json : Json.t -> (t, string) result
(** Restores a snapshot produced by {!to_json} (same schema version
    only).  Open-phase timer state is not restored. *)

val write_file : ?tool:string -> t -> string -> unit
(** Pretty-printed {!to_json} plus a trailing newline. *)
