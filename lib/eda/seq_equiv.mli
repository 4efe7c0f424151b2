(** Sequential equivalence checking on the product machine — the natural
    composition of the paper's CEC (Sec. 3) and BMC ([5]) applications.

    Both machines run in lockstep over shared primary inputs; the product
    property says the outputs (and, when the state encodings correspond,
    the states) agree.  With register correspondence the property is
    1-inductive whenever the next-state logic is combinationally
    equivalent, giving an unbounded proof; otherwise the checker falls
    back to bounded exploration. *)

type result =
  | Equivalent of int
      (** proven for all input sequences (k-induction closed at k) *)
  | Bounded_equivalent of int
      (** no difference within the bound; not proven beyond it *)
  | Different of bool array list
      (** a distinguishing input sequence (one vector per cycle) *)

val check :
  ?metrics:Sat.Metrics.t ->
  ?trace:Sat.Trace.sink ->
  ?config:Sat.Types.config ->
  ?max_k:int ->
  ?bound:int ->
  ?jobs:int ->
  Circuit.Sequential.t -> Circuit.Sequential.t -> result
(** [max_k] (default 4) bounds the induction attempt; [bound]
    (default 16) the fallback bounded search.  Raises
    [Invalid_argument] when primary-input or output counts differ.
    The induction chain and the bounded search are the two tasks of
    one {!Sat.Exec.run} group: in order at [jobs = 1], where a proof or
    refutation by induction skips the bounded search; with
    [jobs >= 2] as a strategy race on a pool of one extra domain, where
    both always run and a bounded counterexample (the shortest) wins.
    The combination is order-independent because a proof and a
    counterexample cannot both exist.  [metrics] observes the
    underlying induction and BMC sessions (per-query solver deltas plus
    the [bmc/*] instruments of the bounded fallback); [trace] is
    attached to the bounded fallback's solvers.  In the race each side
    observes into its slot's private registry and sink, merged after
    the join. *)
