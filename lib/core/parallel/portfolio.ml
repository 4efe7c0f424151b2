(* Parallel portfolio solving: N diversified CDCL workers race on one
   formula as one Exec group, the first definitive answer wins, and
   strong learned clauses flow between workers through a mutex-protected
   pool.  See portfolio.mli for the contract. *)

module Lit = Cnf.Lit

(* --- clause sharing ------------------------------------------------------ *)

type sharing = {
  share : bool;
  max_lbd : int;
  max_len : int;
  capacity : int;
}

let default_sharing = { share = true; max_lbd = 6; max_len = 30; capacity = 20_000 }

(* The shared pool is an append-only array of exported clauses guarded by
   one mutex.  Workers keep a private read cursor, so an import drains
   exactly the entries published since the worker's previous level-0
   boundary; origin tags stop a worker re-importing its own exports.
   Append-only keeps cursors valid without any per-worker bookkeeping in
   the pool itself. *)
module Pool = struct
  type entry = { origin : int; lbd : int; lits : Lit.t list }

  type t = {
    lock : Mutex.t;
    mutable entries : entry array;
    mutable n : int;
    capacity : int;
    mutable dropped : int;
  }

  let dummy = { origin = -1; lbd = 0; lits = [] }

  let create capacity =
    { lock = Mutex.create (); entries = Array.make 64 dummy; n = 0; capacity;
      dropped = 0 }

  let publish p e =
    Mutex.lock p.lock;
    if p.n >= p.capacity then p.dropped <- p.dropped + 1
    else begin
      if p.n = Array.length p.entries then begin
        let bigger = Array.make (2 * p.n) dummy in
        Array.blit p.entries 0 bigger 0 p.n;
        p.entries <- bigger
      end;
      p.entries.(p.n) <- e;
      p.n <- p.n + 1
    end;
    Mutex.unlock p.lock

  (* Entries published since [cursor], newest last, skipping [self]'s own;
     returns the new cursor. *)
  let drain p ~cursor ~self =
    Mutex.lock p.lock;
    let stop = p.n in
    let fresh = ref [] in
    for i = stop - 1 downto cursor do
      let e = p.entries.(i) in
      if e.origin <> self then fresh := e :: !fresh
    done;
    Mutex.unlock p.lock;
    (!fresh, stop)

  let size p =
    Mutex.lock p.lock;
    let n = p.n in
    Mutex.unlock p.lock;
    n

  let dropped p =
    Mutex.lock p.lock;
    let n = p.dropped in
    Mutex.unlock p.lock;
    n
end

(* The exchange hooks: export a learnt clause within the bounds into
   the pool, import the others' exports at every level-0 boundary.
   [self] tags this solver's exports so it never re-imports them. *)
let share sharing pool ~self ?trace s =
  if sharing.share then begin
    let st = Cdcl.stats s in
    Cdcl.set_learn_hook s
      (Some
         (fun lits lbd ->
            if lbd <= sharing.max_lbd && List.length lits <= sharing.max_len
            then begin
              st.Types.exported <- st.Types.exported + 1;
              Option.iter
                (fun tr ->
                   Trace.emit tr (Trace.Export { lbd; size = List.length lits }))
                trace;
              Pool.publish pool { Pool.origin = self; lbd; lits }
            end));
    let cursor = ref 0 in
    Cdcl.set_restart_hook s
      (Some
         (fun () ->
            let fresh, next = Pool.drain pool ~cursor:!cursor ~self in
            cursor := next;
            List.iter
              (fun e -> Cdcl.import_clause ~lbd:e.Pool.lbd s e.Pool.lits)
              fresh))
  end

let validate_sat f outcome =
  match outcome with
  | Types.Sat m ->
    let value v = v < Array.length m && m.(v) in
    if Cnf.Formula.eval value f then outcome
    else Types.Unknown "model failed validation"
  | o -> o

(* --- options -------------------------------------------------------------- *)

type options = {
  jobs : int;
  config : Types.config;
  sharing : sharing;
}

let default_options =
  { jobs = max 1 (Domain.recommended_domain_count ());
    config = Types.default;
    sharing = default_sharing }

(* --- diversification ------------------------------------------------------ *)

(* Worker 0 always runs the base configuration unchanged — the portfolio
   strictly adds workers, it never loses the sequential behaviour.  The
   others perturb exactly the levers Sec. 6 of the paper singles out:
   the restart policy, the random seed, and the branching order (through
   the random-decision frequency), plus the phase-saving polarity
   source.  Frequent-restart members double as eager importers, since
   imports happen at level-0 boundaries. *)
let diversify ~base i =
  if i = 0 then base
  else
    let restarts =
      match i mod 4 with
      | 1 -> Types.Luby 50
      | 2 -> Types.Geometric (100, 1.5)
      | 3 -> Types.Luby 200
      | _ -> Types.Luby 100
    in
    {
      base with
      Types.random_seed = base.Types.random_seed + (i * 1_000_003);
      restarts;
      random_decision_freq =
        Float.max base.Types.random_decision_freq
          (0.02 *. float_of_int (((i - 1) mod 3) + 1));
      phase_saving = (if i mod 2 = 0 then not base.Types.phase_saving
                      else base.Types.phase_saving);
    }

(* --- results -------------------------------------------------------------- *)

type worker_report = {
  worker_config : Types.config;
  worker_outcome : Types.outcome;
  worker_stats : Types.stats;
}

type result = {
  outcome : Types.outcome;
  winner : int option;
  per_worker : worker_report array;
  stats : Types.stats;
  pool_size : int;
  time_seconds : float;
}

(* --- the portfolio --------------------------------------------------------- *)

let solve ?metrics ?trace ?deadline ?options:(opts = default_options) f =
  let t0 = Unix.gettimeofday () in
  let jobs = max 1 opts.jobs in
  (* a lone worker has no peer to share with *)
  let sharing = { opts.sharing with share = opts.sharing.share && jobs > 1 } in
  let pool = Pool.create sharing.capacity in
  let configs = Array.init jobs (fun i -> diversify ~base:opts.config i) in
  (* the caller keeps the handles it reads the statistics from *)
  let solvers = Array.map (fun cfg -> Cdcl.create ~config:cfg f) configs in
  (* one token stops every worker: the first definitive answer sets it *)
  let stop = Atomic.make false in
  let winner = Atomic.make None in
  let outcomes = Array.make jobs (Types.Unknown "not run") in
  let worker i ctx =
    let s = solvers.(i) in
    Option.iter
      (fun m -> Cdcl.set_instruments s (Some (Metrics.solver_instruments m)))
      (Exec.metrics ctx);
    Cdcl.set_tracer s (Exec.trace ctx);
    share sharing pool ~self:i ?trace:(Exec.trace ctx) s;
    let o = Cdcl.solve ~stop ?deadline s in
    outcomes.(i) <- o;
    match o with
    | Types.Unknown _ -> ()
    | Types.Sat _ | Types.Unsat | Types.Unsat_assuming _ ->
      ignore (Atomic.compare_and_set winner None (Some (i, o)));
      (* the losers stop at their next loop iteration *)
      Atomic.set stop true
  in
  Exec.with_pool (jobs - 1) (fun exec ->
      Exec.run exec ?metrics ?trace ~width:jobs
        (List.init jobs worker));
  let per_worker =
    Array.init jobs (fun i ->
        {
          worker_config = configs.(i);
          worker_outcome = outcomes.(i);
          worker_stats = Types.copy_stats (Cdcl.stats solvers.(i));
        })
  in
  let stats = Types.mk_stats () in
  Array.iter (fun w -> Types.add_stats_into stats w.worker_stats) per_worker;
  let winner_idx, outcome =
    match Atomic.get winner with
    | Some (i, o) -> (Some i, validate_sat f o)
    | None ->
      let timed_out w = w.worker_outcome = Types.Unknown "timeout" in
      if Array.exists timed_out per_worker then (None, Types.Unknown "timeout")
      else (None, per_worker.(0).worker_outcome)
  in
  (match metrics with
   | Some m ->
     Metrics.add_stats m stats;
     Metrics.set_gauge (Metrics.gauge m "portfolio/jobs") (float_of_int jobs);
     Metrics.set_gauge
       (Metrics.gauge m "portfolio/pool_size")
       (float_of_int (Pool.size pool));
     Metrics.incr ~by:pool.Pool.dropped
       (Metrics.counter m "portfolio/pool_dropped");
     Metrics.set_gauge
       (Metrics.gauge m "portfolio/winner")
       (match winner_idx with Some i -> float_of_int i | None -> -1.)
   | None -> ());
  {
    outcome;
    winner = winner_idx;
    per_worker;
    stats;
    pool_size = Pool.size pool;
    time_seconds = Unix.gettimeofday () -. t0;
  }
