type heuristic = Vsids | Dlis | Moms | Jeroslow_wang | Fixed_order | Random_order

type restart_policy = No_restarts | Luby of int | Geometric of int * float

type deletion_policy =
  | No_deletion
  | Size_bounded of int
  | Relevance of int * int
  | Lbd_bounded of int
  | Activity_halving

type guidance = {
  seed_activity : (int * float) list;
  seed_phase : (int * bool) list;
}

type config = {
  heuristic : heuristic;
  restarts : restart_policy;
  deletion : deletion_policy;
  phase_saving : bool;
  chronological : bool;
  random_seed : int;
  random_decision_freq : float;
  max_conflicts : int option;
  max_decisions : int option;
  proof_logging : bool;
}

let default =
  {
    heuristic = Vsids;
    restarts = Luby 100;
    deletion = Activity_halving;
    phase_saving = true;
    chronological = false;
    random_seed = 91648253;
    random_decision_freq = 0.0;
    max_conflicts = None;
    max_decisions = None;
    proof_logging = false;
  }

let grasp_like =
  {
    default with
    heuristic = Dlis;
    restarts = No_restarts;
    deletion = Relevance (20, 5);
    phase_saving = false;
  }

type stats = {
  mutable decisions : int;
  mutable propagations : int;
  mutable conflicts : int;
  mutable restarts_done : int;
  mutable learned : int;
  mutable learned_literals : int;
  mutable deleted : int;
  mutable max_level : int;
  mutable nonchrono_backjumps : int;
  mutable skipped_levels : int;
  mutable exported : int;
  mutable imported : int;
  mutable interrupts : int;
}

let mk_stats () =
  {
    decisions = 0;
    propagations = 0;
    conflicts = 0;
    restarts_done = 0;
    learned = 0;
    learned_literals = 0;
    deleted = 0;
    max_level = 0;
    nonchrono_backjumps = 0;
    skipped_levels = 0;
    exported = 0;
    imported = 0;
    interrupts = 0;
  }

let copy_stats s = { s with decisions = s.decisions }

(* Per-call deltas: counters subtract; [max_level] is a high-water mark,
   not a counter, so the later snapshot's value is kept. *)
let diff_stats now before =
  {
    decisions = now.decisions - before.decisions;
    propagations = now.propagations - before.propagations;
    conflicts = now.conflicts - before.conflicts;
    restarts_done = now.restarts_done - before.restarts_done;
    learned = now.learned - before.learned;
    learned_literals = now.learned_literals - before.learned_literals;
    deleted = now.deleted - before.deleted;
    max_level = now.max_level;
    nonchrono_backjumps = now.nonchrono_backjumps - before.nonchrono_backjumps;
    skipped_levels = now.skipped_levels - before.skipped_levels;
    exported = now.exported - before.exported;
    imported = now.imported - before.imported;
    interrupts = now.interrupts - before.interrupts;
  }

let add_stats_into acc d =
  acc.decisions <- acc.decisions + d.decisions;
  acc.propagations <- acc.propagations + d.propagations;
  acc.conflicts <- acc.conflicts + d.conflicts;
  acc.restarts_done <- acc.restarts_done + d.restarts_done;
  acc.learned <- acc.learned + d.learned;
  acc.learned_literals <- acc.learned_literals + d.learned_literals;
  acc.deleted <- acc.deleted + d.deleted;
  acc.max_level <- max acc.max_level d.max_level;
  acc.nonchrono_backjumps <- acc.nonchrono_backjumps + d.nonchrono_backjumps;
  acc.skipped_levels <- acc.skipped_levels + d.skipped_levels;
  acc.exported <- acc.exported + d.exported;
  acc.imported <- acc.imported + d.imported;
  acc.interrupts <- acc.interrupts + d.interrupts

let pp_stats ppf s =
  Format.fprintf ppf
    "decisions=%d propagations=%d conflicts=%d restarts=%d learned=%d \
     deleted=%d max_level=%d nonchrono=%d skipped=%d exported=%d imported=%d \
     interrupts=%d"
    s.decisions s.propagations s.conflicts s.restarts_done s.learned s.deleted
    s.max_level s.nonchrono_backjumps s.skipped_levels s.exported s.imported
    s.interrupts

type proof_step = Add of Cnf.Clause.t * int array | Delete of Cnf.Clause.t

let pp_proof_step ppf = function
  | Add (c, _) -> Format.fprintf ppf "a %a" Cnf.Clause.pp c
  | Delete c -> Format.fprintf ppf "d %a" Cnf.Clause.pp c

type outcome =
  | Sat of bool array
  | Unsat
  | Unsat_assuming of Cnf.Lit.t list
  | Unknown of string

let pp_outcome ppf = function
  | Sat _ -> Format.pp_print_string ppf "SATISFIABLE"
  | Unsat -> Format.pp_print_string ppf "UNSATISFIABLE"
  | Unsat_assuming core ->
    Format.fprintf ppf "UNSAT under assumptions %a"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space Cnf.Lit.pp)
      core
  | Unknown why -> Format.fprintf ppf "UNKNOWN (%s)" why

let is_sat = function Sat _ -> true | Unsat | Unsat_assuming _ | Unknown _ -> false

let model_exn = function
  | Sat m -> m
  | Unsat | Unsat_assuming _ | Unknown _ ->
    invalid_arg "Types.model_exn: not a satisfiable outcome"
