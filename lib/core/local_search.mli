(** Local search for SAT: GSAT and WalkSAT.

    The paper (Sec. 4) notes that of all the approaches proposed for SAT,
    only backtrack search has proven useful for EDA applications, in
    particular for proving unsatisfiability.  These incomplete solvers are
    the baseline for that claim (experiment E15): they can exhibit
    satisfying assignments but can never return "unsatisfiable". *)

type algorithm =
  | Gsat                (** greedy flips of the best-gain variable *)
  | Walksat of float    (** break-count flips with the given noise *)

type config = {
  algorithm : algorithm;
  max_flips : int;      (** per try *)
  max_tries : int;      (** random restarts *)
  seed : int;
}

val default : config
(** WalkSAT, noise 0.5, 100_000 flips, 10 tries. *)

type result = {
  outcome : Types.outcome;  (** [Sat model] or [Unknown]; never [Unsat] *)
  flips : int;
  tries : int;
}

val solve : ?config:config -> ?deadline:float -> Cnf.Formula.t -> result
(** [deadline] is an absolute {!Monotime.now_s} instant, read before
    the first flip and then once every 1024 flips; once it has passed
    the call returns [Unknown "timeout"]. *)
