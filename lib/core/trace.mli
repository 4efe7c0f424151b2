(** Structured event log for solver runs.

    A {!sink} is an in-memory, capacity-bounded buffer of timestamped
    {!record}s.  The solver family emits events into an optionally
    attached sink ([Cdcl.set_tracer], the [?trace] argument of every engine, the
    CLI tools' [--trace FILE.jsonl]); with no sink attached the
    instrumentation reduces to one option check per site — the
    "zero-cost when disabled" contract measured by experiment E25.

    Under the portfolio each worker writes its own sink (tagged with
    its worker id); {!merged} interleaves them into a single stream
    that is monotone in time and, because per-sink timestamps are
    non-decreasing ({!Monotime}), preserves each worker's emission
    order.  The JSONL encoding is documented in [docs/METRICS.md]. *)

val schema_version : int
val schema_name : string
(** ["satreda-trace"], the header-line discriminator. *)

(** One solver event.  Literals are in DIMACS convention in the JSON
    encoding. *)
type event =
  | Solve_begin of { query : int }
      (** a top-level [solve] entry; [query] numbers calls on the same
          solver/session *)
  | Solve_end of { query : int; outcome : string }
      (** see {!outcome_label} for the outcome strings *)
  | Phase_begin of string  (** pipeline phase, e.g. ["preprocess"] *)
  | Phase_end of string
  | Decision of { level : int; lit : Cnf.Lit.t }
  | Propagation of { props : int; trail : int }
      (** one [Deduce()] batch: [props] implications appended, [trail]
          the resulting trail depth.  Emitted only when [props > 0]. *)
  | Conflict of { level : int; trail : int }
  | Learn of { lbd : int; size : int }
  | Restart of { number : int }
  | Reduce_db of { before : int; after : int }
      (** learned-clause database reduction, live counts *)
  | Import of { lbd : int; size : int }  (** foreign clause accepted *)
  | Export of { lbd : int; size : int }  (** learned clause shared *)
  | Cube_emit of { depth : int; size : int }
      (** lookahead emitted a cube (cube-and-conquer) *)
  | Cube_solve of { size : int; outcome : string }
      (** a conquer worker finished one cube *)
  | Cube_split of { size : int }
      (** a cube exceeded its conflict budget and was split in two *)

type record = {
  worker : int;  (** 0 for sequential runs; portfolio worker id else *)
  seq : int;     (** per-worker emission counter, dense from 0 *)
  time_s : float;  (** seconds since process start ({!Monotime}) *)
  event : event;
}

val outcome_label : Types.outcome -> string
(** ["sat"], ["unsat"], ["unsat-assuming"], or ["unknown:<reason>"]. *)

type sink

val default_capacity : int
(** 1,000,000 records (≈ tens of MB); beyond it events are counted as
    {!dropped} rather than stored. *)

val make_sink : ?worker:int -> ?capacity:int -> unit -> sink

val emit : sink -> event -> unit
(** Stamp the event with the sink's worker id, next sequence number and
    the current time, and buffer it (or count it dropped at capacity). *)

val records : sink -> record array
(** Buffered records in emission order. *)

val length : sink -> int
val dropped : sink -> int
val worker : sink -> int

val absorb : into:sink -> sink -> unit
(** Append [src]'s records (keeping their worker/seq/time stamps) and
    add its drop count.  Used by the portfolio to fold worker sinks
    into the caller's sink. *)

val merged : sink list -> record array
(** All records across the sinks, sorted by timestamp; ties keep the
    order of the sink list.  Each worker's subsequence stays in
    emission order. *)

val record_to_json : record -> Json.t
val header : ?tool:string -> dropped:int -> unit -> Json.t

val write_file : ?tool:string -> sink list -> string -> unit
(** JSONL: one header line ([schema]/[version]/[tool]/[dropped]), then
    one line per record of {!merged}. *)
