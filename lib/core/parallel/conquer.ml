(* Conquer half of cube-and-conquer: a work-stealing deque of cubes
   served by N worker domains, each solving cubes as assumption queries
   on its own incremental session, with learned-clause exchange through
   the portfolio pool.  See conquer.mli for the contract. *)

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

(* Per-worker deque under one mutex: the owner pushes and pops at the
   front (LIFO keeps split children hot), thieves take from the back
   (FIFO steals the oldest, largest-grained cube).  Cube counts are a
   few thousand at most, so the O(n) back removal never matters. *)
module Deque = struct
  type 'a t = { lock : Mutex.t; mutable items : 'a list }

  let create () = { lock = Mutex.create (); items = [] }

  let push d x =
    Mutex.lock d.lock;
    d.items <- x :: d.items;
    Mutex.unlock d.lock

  let pop d =
    Mutex.lock d.lock;
    let r =
      match d.items with
      | [] -> None
      | x :: tl ->
        d.items <- tl;
        Some x
    in
    Mutex.unlock d.lock;
    r

  let steal d =
    Mutex.lock d.lock;
    let r =
      match List.rev d.items with
      | [] -> None
      | x :: rtl ->
        d.items <- List.rev rtl;
        Some x
    in
    Mutex.unlock d.lock;
    r
end

type entry = { lits : Lit.t list; gen : int; unbounded : bool }

let validate_sat f outcome =
  match outcome with
  | Types.Sat m ->
    let value v = v < Array.length m && m.(v) in
    if Cnf.Formula.eval value f then outcome
    else Types.Unknown "cube-conquer: model failed validation"
  | o -> o

(* The splitting variable of an over-budget cube: the root-unassigned
   variable outside the cube with the highest VSIDS activity in the
   worker's own solver — the conquer-side analogue of the lookahead
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

let conquer ~opts ~t0 ~deadline ~la f =
  (match opts.metrics with
   | Some m -> Metrics.phase_begin m "cube/conquer"
   | None -> ());
  let jobs = opts.jobs in
  let sharing = opts.sharing in
  let pool = Portfolio.Pool.create sharing.Portfolio.capacity in
  let deques = Array.init jobs (fun _ -> Deque.create ()) in
  List.iteri
    (fun i c ->
       Deque.push deques.(i mod jobs) { lits = c; gen = 0; unbounded = false })
    la.Cube.cubes;
  let outstanding = Atomic.make (List.length la.Cube.cubes) in
  let splits = Atomic.make 0 in
  let solved = Atomic.make 0 in
  (* the caller's token, or a fresh one, doubles as the finish flag:
     every cube query reads it, and [declare] sets it *)
  let stop = Option.value opts.stop ~default:(Atomic.make false) in
  let timed_out = Atomic.make false in
  let lock = Mutex.create () in
  let decided = ref None in
  let configs =
    Array.init jobs (fun i ->
        { opts.config with
          Types.random_seed = opts.config.Types.random_seed + (i * 7919) })
  in
  (* each worker owns an incremental session pre-loaded with what
     lookahead already proved: the level-0 units and the negations of
     the refuted decision prefixes (all implicates of [f]) *)
  let sessions =
    Array.map
      (fun cfg ->
         let sess = Session.of_formula ~config:cfg f in
         List.iter (fun u -> Session.add_clause sess [ u ]) la.Cube.units;
         List.iter
           (fun prefix ->
              Session.add_clause sess (List.map Lit.negate prefix))
           la.Cube.refuted;
         sess)
      configs
  in
  let declare o =
    Mutex.lock lock;
    if !decided = None then decided := Some o;
    Mutex.unlock lock;
    Atomic.set stop true
  in
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
    (fun i sess ->
       if worker_regs <> [||] then Session.attach_metrics sess worker_regs.(i);
       if worker_sinks <> [||] then
         Session.set_tracer sess (Some worker_sinks.(i)))
    sessions;
  (* clause exchange, portfolio-style.  Clauses learned under assumption
     queries are implicates of the clause database alone (assumption
     literals carry dummy reasons and are never resolved away), so a
     clause learned in one cube is sound in every other. *)
  let install_sharing i sess =
    if sharing.Portfolio.share then begin
      let s = Session.raw sess in
      let st = Cdcl.stats s in
      Cdcl.set_learn_hook s
        (Some
           (fun lits lbd ->
              if
                lbd <= sharing.Portfolio.max_lbd
                && List.length lits <= sharing.Portfolio.max_len
              then begin
                st.Types.exported <- st.Types.exported + 1;
                if worker_sinks <> [||] then
                  Trace.emit worker_sinks.(i)
                    (Trace.Export { lbd; size = List.length lits });
                Portfolio.Pool.publish pool
                  { Portfolio.Pool.origin = i; lbd; lits }
              end));
      let cursor = ref 0 in
      Cdcl.set_restart_hook s
        (Some
           (fun () ->
              let fresh, next =
                Portfolio.Pool.drain pool ~cursor:!cursor ~self:i
              in
              cursor := next;
              List.iter
                (fun e ->
                   Cdcl.import_clause ~lbd:e.Portfolio.Pool.lbd s
                     e.Portfolio.Pool.lits)
                fresh))
    end
  in
  Array.iteri install_sharing sessions;
  let try_pop i =
    match Deque.pop deques.(i) with
    | Some e -> Some e
    | None ->
      let rec scan k =
        if k >= jobs then None
        else
          match Deque.steal deques.((i + k) mod jobs) with
          | Some e -> Some e
          | None -> scan (k + 1)
      in
      scan 1
  in
  let run_entry i sess e =
    (* doubling budgets per generation: a split child gets twice its
       parent's budget, so repeated splitting cannot starve a cube *)
    let budget =
      if e.unbounded then None else Some (opts.cutoff * (1 lsl min e.gen 16))
    in
    let o =
      Session.solve ?max_conflicts:budget ~stop ?deadline ~assumptions:e.lits
        sess
    in
    if worker_sinks <> [||] then
      Trace.emit worker_sinks.(i)
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
    | Types.Unknown _ ->
      if Atomic.get splits >= opts.max_splits then
        Deque.push deques.(i) { e with unbounded = true }
      else begin
        match pick_split sess e.lits with
        | None -> Deque.push deques.(i) { e with unbounded = true }
        | Some v ->
          Atomic.incr splits;
          ignore (Atomic.fetch_and_add outstanding 1);
          if worker_sinks <> [||] then
            Trace.emit worker_sinks.(i)
              (Trace.Cube_split { size = List.length e.lits });
          let child l =
            { lits = e.lits @ [ l ]; gen = e.gen + 1; unbounded = false }
          in
          Deque.push deques.(i) (child (Lit.pos v));
          Deque.push deques.(i) (child (Lit.neg_of_var v))
      end
  in
  let worker i =
    let sess = sessions.(i) in
    let rec loop () =
      if Atomic.get stop then ()
      else
        match try_pop i with
        | Some e ->
          run_entry i sess e;
          loop ()
        | None ->
          if Atomic.get outstanding > 0 then begin
            Unix.sleepf 0.001;
            loop ()
          end
    in
    loop ()
  in
  let domains = Array.init jobs (fun i -> Domain.spawn (fun () -> worker i)) in
  Array.iter Domain.join domains;
  let outcome =
    match !decided with
    | Some (Types.Sat _ as sat) -> validate_sat f sat
    | Some o -> o
    | None ->
      if Atomic.get outstanding <= 0 then Types.Unsat
      else if Atomic.get timed_out then Types.Unknown "timeout"
      else Types.Unknown "interrupted"
  in
  let stats = Types.mk_stats () in
  Types.add_stats_into stats la.Cube.stats;
  Array.iter
    (fun sess -> Types.add_stats_into stats (Session.cumulative_stats sess))
    sessions;
  (match opts.metrics with
   | Some m ->
     Array.iter (fun r -> Metrics.merge_into ~into:m r) worker_regs;
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
  (match opts.trace with
   | Some dst -> Array.iter (fun s -> Trace.absorb ~into:dst s) worker_sinks
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

let solve ?(options = default_options) f =
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
    Cube.generate ~options:opts.cube ?metrics:opts.metrics ?trace:opts.trace f
  in
  match la.Cube.decided with
  | Some o ->
    {
      outcome = validate_sat f o;
      lookahead = la;
      solved_cubes = 0;
      splits = 0;
      pool_size = 0;
      stats = Types.copy_stats la.Cube.stats;
      time_seconds = Unix.gettimeofday () -. t0;
    }
  | None -> conquer ~opts ~t0 ~deadline ~la f
