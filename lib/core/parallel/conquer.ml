(* Conquer half of cube-and-conquer: every cube is a task of one Exec
   group, solved as an assumption query on its slot's incremental
   session, with learned-clause exchange through the portfolio pool.
   See conquer.mli for the contract. *)

module Lit = Cnf.Lit

type options = {
  jobs : int;
  cube : Cube.options;
  config : Types.config;
  sharing : Portfolio.sharing;
  cutoff : int;
  max_splits : int;
  timeout : float option;
  stop : bool Atomic.t option;
  metrics : Metrics.t option;
  trace : Trace.sink option;
}

let default_options =
  {
    jobs = max 1 (Domain.recommended_domain_count ());
    cube = Cube.default_options;
    config = Types.default;
    sharing = Portfolio.default_sharing;
    cutoff = 10_000;
    max_splits = 4096;
    timeout = None;
    stop = None;
    metrics = None;
    trace = None;
  }

type result = {
  outcome : Types.outcome;
  lookahead : Cube.t;
  solved_cubes : int;
  splits : int;
  pool_size : int;
  stats : Types.stats;
  time_seconds : float;
}

type entry = { lits : Lit.t list; gen : int; unbounded : bool }

(* The splitting variable of an over-budget cube: the root-unassigned
   variable outside the cube with the highest VSIDS activity in the
   slot's own session — the conquer-side analogue of the lookahead
   score, but free, since the activities are already there. *)
let pick_split sess cube =
  let s = Session.raw sess in
  let n = Cdcl.nvars s in
  let in_cube = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace in_cube (Lit.var l) ()) cube;
  let best = ref None in
  for v = 0 to n - 1 do
    if Cdcl.value_var s v < 0 && not (Hashtbl.mem in_cube v) then begin
      let a = Cdcl.var_activity s v in
      match !best with
      | Some (a0, _) when a0 >= a -> ()
      | _ -> best := Some (a, v)
    end
  done;
  Option.map snd !best

let conquer ~exec ~opts ~t0 ~deadline ~la f =
  (match opts.metrics with
   | Some m -> Metrics.phase_begin m "cube/conquer"
   | None -> ());
  let jobs = opts.jobs in
  let pool = Portfolio.Pool.create opts.sharing.Portfolio.capacity in
  let outstanding = Atomic.make (List.length la.Cube.cubes) in
  let splits = Atomic.make 0 in
  let solved = Atomic.make 0 in
  (* the caller's token, or a fresh one, doubles as the finish flag:
     every cube query reads it, and [declare] sets it *)
  let stop = Option.value opts.stop ~default:(Atomic.make false) in
  let timed_out = Atomic.make false in
  let decided = Atomic.make None in
  let declare o =
    ignore (Atomic.compare_and_set decided None (Some o));
    Atomic.set stop true
  in
  (* one warm session per slot, made on the slot's first cube and
     pre-loaded with what lookahead already proved: the level-0 units
     and the negations of the refuted decision prefixes (all implicates
     of [f]).  Clauses learned under assumption queries are implicates
     of the clause database alone (assumption literals carry dummy
     reasons and are never resolved away), so a clause learned in one
     cube is sound in every other. *)
  let sessions = Array.make jobs None in
  let session ctx =
    let i = Exec.slot ctx in
    match sessions.(i) with
    | Some sess -> sess
    | None ->
      let config =
        { opts.config with
          Types.random_seed = opts.config.Types.random_seed + (i * 7919) }
      in
      let sess = Session.of_formula ~config f in
      List.iter (fun u -> Session.add_clause sess [ u ]) la.Cube.units;
      List.iter
        (fun prefix -> Session.add_clause sess (List.map Lit.negate prefix))
        la.Cube.refuted;
      Option.iter (Session.attach_metrics sess) (Exec.metrics ctx);
      Session.set_tracer sess (Exec.trace ctx);
      Portfolio.share opts.sharing pool ~self:i ?trace:(Exec.trace ctx)
        (Session.raw sess);
      sessions.(i) <- Some sess;
      sess
  in
  let emit ctx ev = Option.iter (fun tr -> Trace.emit tr ev) (Exec.trace ctx) in
  let rec cube e ctx =
    if not (Atomic.get stop) then begin
      let sess = session ctx in
      (* doubling budgets per generation: a split child gets twice its
         parent's budget, so repeated splitting cannot starve a cube *)
      let budget =
        if e.unbounded then None else Some (opts.cutoff * (1 lsl min e.gen 16))
      in
      let o =
        Session.solve ?max_conflicts:budget ~stop ?deadline ~assumptions:e.lits
          sess
      in
      emit ctx
        (Trace.Cube_solve
           { size = List.length e.lits; outcome = Trace.outcome_label o });
      match o with
      | Types.Sat _ as sat ->
        Atomic.incr solved;
        declare sat
      | Types.Unsat ->
        Atomic.incr solved;
        declare Types.Unsat
      | Types.Unsat_assuming _ ->
        Atomic.incr solved;
        if Atomic.fetch_and_add outstanding (-1) = 1 then
          (* that was the last open cube: the cover is exhausted *)
          declare Types.Unsat
      | Types.Unknown "interrupted" -> () (* the run is over *)
      | Types.Unknown "timeout" ->
        Atomic.set timed_out true;
        Atomic.set stop true
      | Types.Unknown _ when budget = None ->
        (* no per-cube budget was set, so the limit came from the user's
           config; requeueing would loop forever — report it globally *)
        declare o
      | Types.Unknown _ -> (
        match
          if Atomic.get splits >= opts.max_splits then None
          else pick_split sess e.lits
        with
        | None -> Exec.push ctx (cube { e with unbounded = true })
        | Some v ->
          Atomic.incr splits;
          ignore (Atomic.fetch_and_add outstanding 1);
          emit ctx (Trace.Cube_split { size = List.length e.lits });
          let child l =
            cube { lits = e.lits @ [ l ]; gen = e.gen + 1; unbounded = false }
          in
          Exec.push ctx (child (Lit.pos v));
          Exec.push ctx (child (Lit.neg_of_var v)))
    end
  in
  Exec.run exec ?metrics:opts.metrics ?trace:opts.trace ~width:jobs
    (List.map
       (fun c -> cube { lits = c; gen = 0; unbounded = false })
       la.Cube.cubes);
  let outcome =
    match Atomic.get decided with
    | Some (Types.Sat _ as sat) -> Portfolio.validate_sat f sat
    | Some o -> o
    | None ->
      if Atomic.get outstanding <= 0 then Types.Unsat
      else if Atomic.get timed_out then Types.Unknown "timeout"
      else Types.Unknown "interrupted"
  in
  let stats = Types.mk_stats () in
  Types.add_stats_into stats la.Cube.stats;
  Array.iter
    (Option.iter (fun sess ->
         Types.add_stats_into stats (Session.cumulative_stats sess)))
    sessions;
  (match opts.metrics with
   | Some m ->
     Metrics.set_gauge (Metrics.gauge m "cube/jobs") (float_of_int jobs);
     Metrics.incr ~by:(Atomic.get solved) (Metrics.counter m "cube/solved");
     Metrics.incr ~by:(Atomic.get splits) (Metrics.counter m "cube/splits");
     Metrics.set_gauge
       (Metrics.gauge m "cube/pool_size")
       (float_of_int (Portfolio.Pool.size pool));
     Metrics.incr
       ~by:(Portfolio.Pool.dropped pool)
       (Metrics.counter m "cube/pool_dropped");
     Metrics.phase_end m "cube/conquer"
   | None -> ());
  {
    outcome;
    lookahead = la;
    solved_cubes = Atomic.get solved;
    splits = Atomic.get splits;
    pool_size = Portfolio.Pool.size pool;
    stats;
    time_seconds = Unix.gettimeofday () -. t0;
  }

let solve ?exec ?(options = default_options) f =
  let t0 = Unix.gettimeofday () in
  let deadline =
    Option.map (fun secs -> Monotime.now_s () +. secs) options.timeout
  in
  let opts =
    { options with
      jobs = max 1 options.jobs;
      cutoff = max 1 options.cutoff;
      max_splits = max 0 options.max_splits }
  in
  let la =
    Cube.generate ~options:opts.cube ?stop:opts.stop ?deadline
      ?metrics:opts.metrics ?trace:opts.trace f
  in
  match la.Cube.decided with
  | Some o ->
    {
      outcome = Portfolio.validate_sat f o;
      lookahead = la;
      solved_cubes = 0;
      splits = 0;
      pool_size = 0;
      stats = Types.copy_stats la.Cube.stats;
      time_seconds = Unix.gettimeofday () -. t0;
    }
  | None -> (
    let conquer exec = conquer ~exec ~opts ~t0 ~deadline ~la f in
    match exec with
    | Some exec -> conquer exec
    | None -> Exec.with_pool (opts.jobs - 1) conquer)
