(** The executor: one fixed pool of worker domains, the only place in
    the library that spawns a domain.

    - {!submit} queues a fire-and-forget job (the service scheduler
      submits one per admitted query).
    - {!run} is a fork-join over a {e group} of tasks of a given
      [width]: at most [width] participants run its tasks at once, each
      holding one {e slot} in [0, width).  The caller holds slot 0 and
      runs tasks too; idle pool domains join through the free slots,
      but a submitted job comes first: a helper leaves the group after
      its current task as soon as a job waits.  A task learns its slot,
      so per-slot state (a warm session, a private registry) is used by
      one participant at a time, and it may {!push} more tasks into its
      group (a cube split pushes both children).

    Each slot owns a deque, dealt the initial tasks round-robin.  Its
    holder pops the front, so pushed children run next in the same
    slot.  A participant whose deque is empty first adopts a free slot
    with queued tasks, so a task runs in the slot it was placed in
    whenever that slot is free, and only then steals from the back of a
    busy slot (the oldest, coarsest task).

    Nesting is safe: a caller waiting in {!run} keeps running its own
    group's unstarted tasks and blocks only when none is left, so a
    pool job that runs a group (a scheduler query decomposed into
    cubes) neither deadlocks nor needs another domain; with every pool
    domain busy, each group runs on its caller alone.  Live domains
    never exceed the pool size plus the callers outside the pool.  One
    lock guards the pool's queues and deques; it is taken a few times
    per task, never on a search path. *)

type t

val create : int -> t
(** [create n] starts [n] worker domains (none when [n <= 0]: every
    {!run} then executes on its caller).  If a spawn fails, the domains
    already started are joined and the exception is re-raised. *)

val size : t -> int
(** The number of worker domains. *)

val shutdown : t -> unit
(** Lets the workers finish the submitted jobs, then joins them.  Call
    it once every {!run} on the pool has returned. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool n f] runs [f] on a fresh pool of [n] domains and shuts
    it down when [f] returns or raises. *)

val submit : t -> (unit -> unit) -> unit
(** Queues a job for the next idle worker, in submission order.  An
    exception that escapes the job is dropped, so the worker survives.
    A pool of size 0 never runs it. *)

type ctx
(** A participant's view of its group while it runs one task. *)

val slot : ctx -> int

val metrics : ctx -> Metrics.t option
(** The slot's private registry, merged into the {!run} caller's after
    the join; at [width = 1], the caller's registry itself. *)

val trace : ctx -> Trace.sink option
(** The slot's sink, tagged [~worker:slot] and absorbed into the {!run}
    caller's after the join; at [width = 1], the caller's sink itself. *)

val push : ctx -> (ctx -> unit) -> unit
(** Adds a task at the front of the current slot's deque. *)

val run :
  t -> ?metrics:Metrics.t -> ?trace:Trace.sink -> width:int ->
  (ctx -> unit) list -> unit
(** Runs the tasks and every task they push, and returns when all have
    finished.  [width] is at least 1.  If a task raises, the group's
    unstarted tasks are skipped and the first exception is re-raised
    once the running ones have finished. *)
