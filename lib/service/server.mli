(** The [satd] socket server: one event-loop domain multiplexing many
    clients onto a {!Scheduler}.

    Connection handling is a classic readiness loop ([Unix.select]) —
    no thread per client:

    - client sockets are non-blocking; input accumulates in a per-client
      buffer and is cut into newline-terminated frames
      ({!Sat.Json.parse_line} strictness), replies queue per client and
      drain as the socket accepts them;
    - a malformed frame earns an [error] reply and the connection
      {e survives} (line framing re-synchronizes at the next newline);
      an over-long frame ({!config.max_frame}) closes the connection —
      there is no way to resynchronize inside an unbounded line;
    - a client disconnect cancels all its in-flight queries
      ({!Scheduler.cancel} sets each query's stop token; a worker
      mid-solve stops at its next search-loop iteration and its session
      returns to the pool);
    - workers hand finished answers to a completion queue and wake the
      loop through a self-pipe; the loop writes the replies out;
    - per-query deadlines ([timeout_ms]) are enforced inside the
      solve itself ({!Scheduler.submit}), not by the loop, so a reply
      does not wait for the next loop turn;
    - a [shutdown] request (or {!stop}, typically from a signal
      handler) stops admission, lets in-flight work drain, answers the
      shutdown requester(s), then exits {!run}. *)

type config = {
  unix_path : string option;  (** listen on a Unix-domain socket path *)
  tcp : (string * int) option;  (** listen on [host, port] *)
  jobs : int;  (** pool domains ({!Scheduler.create}) *)
  max_queue : int;  (** admission-control queue bound *)
  max_frame : int;  (** bytes; longer frames close the connection *)
  max_conflicts_cap : int option;  (** server-wide per-query budget cap *)
  cube_threshold : int option;
      (** decompose unbudgeted assumption-free queries with at least
          this many clauses by cube-and-conquer on the same pool
          ({!Scheduler.create});
          [None] disables decomposition *)
  autotune : bool;
      (** tune each cold unbudgeted query's restarts, inprocessing and
          guidance per the docs/TUNING.md decision table
          ({!Scheduler.create}) *)
  max_results : int;  (** result-cache capacity *)
  max_sessions : int;  (** warm-session-pool capacity *)
  verbose : bool;  (** connection/query logging on [stderr] *)
}

val default_config : config
(** No listeners (callers must set at least one), [jobs] =
    recommended domains - 1, queue 128, 16 MiB frames, no conflict
    cap, cache 4096/64, quiet. *)

type t

val create : config -> t
(** Binds the listeners and spawns the scheduler.  Raises
    [Invalid_argument] if no listener is configured; [Unix.Unix_error]
    if binding fails.  A stale Unix-socket path is unlinked first. *)

val scheduler : t -> Scheduler.t

val run : t -> unit
(** Serves until a [shutdown] request or {!stop}.  Returns after
    in-flight work has drained, replies are flushed, sockets are closed
    and the worker domains are joined. *)

val stop : t -> unit
(** Requests graceful shutdown from another domain or a signal handler
    (async-signal-safe: sets an atomic flag the loop polls). *)
