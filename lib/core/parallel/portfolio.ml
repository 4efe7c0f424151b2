(* Parallel portfolio solving on OCaml 5 domains: N diversified CDCL
   workers race on one formula, the first definitive answer wins, and
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

(* --- options -------------------------------------------------------------- *)

type options = {
  jobs : int;
  config : Types.config;
  sharing : sharing;
  timeout : float option;
  metrics : Metrics.t option;
  trace : Trace.sink option;
}

let default_options =
  { jobs = max 1 (Domain.recommended_domain_count ());
    config = Types.default;
    sharing = default_sharing;
    timeout = None;
    metrics = None;
    trace = None }

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

let definitive = function
  | Types.Sat _ | Types.Unsat | Types.Unsat_assuming _ -> true
  | Types.Unknown _ -> false

let validate_sat f outcome =
  match outcome with
  | Types.Sat m ->
    let value v = v < Array.length m && m.(v) in
    if Cnf.Formula.eval value f then outcome
    else Types.Unknown "portfolio: model failed validation"
  | o -> o

(* --- sequential path (jobs = 1) ------------------------------------------- *)

(* [timeout] becomes one absolute deadline, checked inside the search *)
let deadline_of opts =
  Option.map (fun secs -> Monotime.now_s () +. secs) opts.timeout

let solve_sequential ~opts f =
  let config = opts.config in
  let t0 = Unix.gettimeofday () in
  let deadline = deadline_of opts in
  let s = Cdcl.create ~config f in
  (match opts.metrics with
   | Some m ->
     Cdcl.set_instruments s (Some (Metrics.solver_instruments m));
     Cdcl.set_metrics s (Some m);
     Metrics.set_gauge (Metrics.gauge m "portfolio/jobs") 1.
   | None -> ());
  Cdcl.set_tracer s opts.trace;
  let outcome = validate_sat f (Cdcl.solve ?deadline s) in
  let stats = Types.copy_stats (Cdcl.stats s) in
  (match opts.metrics with
   | Some m -> Metrics.add_stats m stats
   | None -> ());
  {
    outcome;
    winner = (if definitive outcome then Some 0 else None);
    per_worker = [| { worker_config = config; worker_outcome = outcome;
                      worker_stats = stats } |];
    stats;
    pool_size = 0;
    time_seconds = Unix.gettimeofday () -. t0;
  }

(* --- the portfolio --------------------------------------------------------- *)

let solve_parallel ~opts f =
  let t0 = Unix.gettimeofday () in
  let deadline = deadline_of opts in
  let jobs = opts.jobs in
  let sharing = opts.sharing in
  let pool = Pool.create sharing.capacity in
  let configs = Array.init jobs (fun i -> diversify ~base:opts.config i) in
  (* solvers are created in the parent domain, before the workers spawn:
     the spawn is the publication point, and the parent keeps the
     handles it reads the statistics from after the join *)
  let solvers = Array.map (fun cfg -> Cdcl.create ~config:cfg f) configs in
  (* each worker gets a private registry and trace sink — no locking on
     the emission paths — merged into the caller's after the join *)
  let worker_regs =
    match opts.metrics with
    | Some _ -> Array.init jobs (fun _ -> Metrics.create ())
    | None -> [||]
  in
  let worker_sinks =
    match opts.trace with
    | Some _ -> Array.init jobs (fun i -> Trace.make_sink ~worker:i ())
    | None -> [||]
  in
  Array.iteri
    (fun i s ->
       if worker_regs <> [||] then begin
         Cdcl.set_instruments s
           (Some (Metrics.solver_instruments worker_regs.(i)));
         Cdcl.set_metrics s (Some worker_regs.(i))
       end;
       if worker_sinks <> [||] then Cdcl.set_tracer s (Some worker_sinks.(i)))
    solvers;
  (* one token stops every worker: the first definitive answer sets it *)
  let stop = Atomic.make false in
  let winner = Atomic.make None in
  let outcomes = Array.make jobs None in
  let install_sharing i s =
    if sharing.share then begin
      let st = Cdcl.stats s in
      Cdcl.set_learn_hook s
        (Some
           (fun lits lbd ->
              if lbd <= sharing.max_lbd && List.length lits <= sharing.max_len
              then begin
                st.Types.exported <- st.Types.exported + 1;
                if worker_sinks <> [||] then
                  Trace.emit worker_sinks.(i)
                    (Trace.Export { lbd; size = List.length lits });
                Pool.publish pool { Pool.origin = i; lbd; lits }
              end));
      let cursor = ref 0 in
      Cdcl.set_restart_hook s
        (Some
           (fun () ->
              let fresh, next = Pool.drain pool ~cursor:!cursor ~self:i in
              cursor := next;
              List.iter
                (fun e -> Cdcl.import_clause ~lbd:e.Pool.lbd s e.Pool.lits)
                fresh))
    end
  in
  Array.iteri install_sharing solvers;
  let worker i =
    let o = Cdcl.solve ~stop ?deadline solvers.(i) in
    outcomes.(i) <- Some o;
    if definitive o then begin
      ignore (Atomic.compare_and_set winner None (Some (i, o)));
      (* the losers stop at their next loop iteration *)
      Atomic.set stop true
    end
  in
  Array.init jobs (fun i -> Domain.spawn (fun () -> worker i))
  |> Array.iter Domain.join;
  let per_worker =
    Array.init jobs (fun i ->
        {
          worker_config = configs.(i);
          worker_outcome =
            (match outcomes.(i) with Some o -> o | None -> assert false);
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
  (match opts.metrics with
   | Some m ->
     Array.iter (fun r -> Metrics.merge_into ~into:m r) worker_regs;
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
  (match opts.trace with
   | Some dst -> Array.iter (fun s -> Trace.absorb ~into:dst s) worker_sinks
   | None -> ());
  {
    outcome;
    winner = winner_idx;
    per_worker;
    stats;
    pool_size = Pool.size pool;
    time_seconds = Unix.gettimeofday () -. t0;
  }

let solve ?(options = default_options) f =
  if options.jobs <= 1 then solve_sequential ~opts:options f
  else solve_parallel ~opts:options f
