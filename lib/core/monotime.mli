(** A monotone-ish clock for phase timers and trace timestamps.

    The stdlib exposes no monotonic clock and this project links no C
    stubs, so the implementation clamps [Unix.gettimeofday] through an
    atomic maximum: successive calls never observe time going backwards
    (process-wide, across domains), though a stepped wall clock can
    still stretch or freeze apparent durations.  Good enough for the
    millisecond-scale phase timing the {!Metrics} layer needs, and
    honest about being wall-time underneath. *)

val now_s : unit -> float
(** Current time in seconds.  Monotone non-decreasing across all
    callers in the process. *)

val past : float option -> bool
(** [past deadline] is true once the absolute {!now_s} instant
    [deadline] has come; [None] never comes.  Every engine's [?deadline]
    argument is such an instant, tested with this one function. *)

val since_start_s : unit -> float
(** Seconds since this module was initialised (first use of the
    library).  Trace timestamps use this origin so runs are comparable
    without leaking absolute wall-clock times into the output. *)
