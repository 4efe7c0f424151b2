(* Query scheduler on an Exec pool.  See scheduler.mli for the contract. *)

module J = Sat.Json
module T = Sat.Types

type answer = {
  outcome : T.outcome;
  cached : bool;
  warm : bool;
  matched_prefix : int;
  time_s : float;
  conflicts : int;
  decisions : int;
}

type job = {
  params : Protocol.solve_params;
  deadline : float option;  (* absolute Monotime instant *)
  on_done : answer -> unit;
  hashes : Fhash.t array;  (* prefix chain hashes of [params.clauses] *)
  stop : bool Atomic.t;
      (* owned from [submit] on: [cancel] sets it, and whatever solve
         serves the job reads it *)
}

type submit_error = Overloaded | Draining

type t = {
  lock : Mutex.t;
  idle : Condition.t;  (* drain waits here for quiescence *)
  exec : Sat.Exec.t;
  max_queue : int;
  max_conflicts_cap : int option;
  cube_threshold : int option;
  cache : Cache.t;
  mutable queued : int;  (* submitted to [exec], not yet started *)
  mutable inflight : int;
  mutable draining : bool;
  (* counters, all under [lock] *)
  mutable queries : int;
  mutable cancelled_n : int;
  mutable timeouts : int;
  mutable overloaded_n : int;
  mutable errors : int;
  mutable peak_queue : int;
  mutable decomposed_n : int;
  (* per-tenant metric registries, under their own lock so a slow
     merge never blocks admission *)
  tenants_lock : Mutex.t;
  tenants : (string, Sat.Metrics.t) Hashtbl.t;
}

let cache t = t.cache

let set_draining t =
  Mutex.lock t.lock;
  t.draining <- true;
  Mutex.unlock t.lock

let quiescent t =
  Mutex.lock t.lock;
  let q = t.queued = 0 && t.inflight = 0 in
  Mutex.unlock t.lock;
  q

(* --- serving a query ------------------------------------------------------ *)

let combine_budget a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some p, Some q -> Some (min p q)

let finished t job answer counted =
  Mutex.lock t.lock;
  counted t;
  Mutex.unlock t.lock;
  job.on_done answer

let no_search outcome =
  {
    outcome;
    cached = false;
    warm = false;
    matched_prefix = 0;
    time_s = 0.;
    conflicts = 0;
    decisions = 0;
  }

(* merge one query's registry into its tenant's rollup *)
let roll_up t tenant reg =
  Mutex.lock t.tenants_lock;
  let into =
    match Hashtbl.find_opt t.tenants tenant with
    | Some m -> m
    | None ->
      let m = Sat.Metrics.create () in
      Hashtbl.add t.tenants tenant m;
      m
  in
  Sat.Metrics.merge_into ~into reg;
  Mutex.unlock t.tenants_lock

(* A solve stopped by the job's token answers [interrupted].  Only
   [cancel] sets the token while a solve can still stop on it
   (Conquer sets it too, once its answer is in), so the client hears
   [cancelled]. *)
let cancelled_if_stopped = function
  | T.Unknown "interrupted" -> T.Unknown "cancelled"
  | o -> o

let count_stop t = function
  | T.Unknown "cancelled" -> t.cancelled_n <- t.cancelled_n + 1
  | T.Unknown "timeout" -> t.timeouts <- t.timeouts + 1
  | _ -> ()

(* An oversized unbudgeted query bypasses the warm-session pool and is
   decomposed by cube-and-conquer on the scheduler's own pool. *)
let solve_decomposed t job reg f =
  let options =
    { Sat.Conquer.default_options with
      Sat.Conquer.jobs = Sat.Exec.size t.exec;
      config = Cache.config t.cache }
  in
  let r =
    Sat.Conquer.solve ~exec:t.exec ~metrics:reg ~stop:job.stop
      ?deadline:job.deadline ~options f
  in
  (r.Sat.Conquer.outcome, r.Sat.Conquer.stats, 0)

(* Take a warm session holding a prefix, or start cold. *)
let solve_incremental t job reg ~budget ~hashes ~full ~nclauses =
  let p = job.params in
  let sess, matched =
    match if p.use_cache then Cache.checkout t.cache hashes else None with
    | Some (sess, i) -> (sess, i)
    | None -> (Sat.Session.create ~config:(Cache.config t.cache) (), 0)
  in
  Sat.Session.attach_metrics sess reg;
  (* grow the session to the full clause sequence *)
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  List.iter
    (fun c -> Sat.Session.add_clause sess (List.map Cnf.Lit.of_dimacs c))
    (drop matched p.clauses);
  let outcome =
    Sat.Session.solve
      ~assumptions:(List.map Cnf.Lit.of_dimacs p.assumptions)
      ?max_conflicts:budget ?max_decisions:p.max_decisions ~stop:job.stop
      ?deadline:job.deadline sess
  in
  if p.use_cache then Cache.checkin t.cache ~hash:full ~nclauses sess;
  (outcome, Sat.Session.last_stats sess, matched)

let process t job =
  let p = job.params in
  if Atomic.get job.stop then
    finished t job
      (no_search (T.Unknown "cancelled"))
      (fun t -> t.cancelled_n <- t.cancelled_n + 1)
  else if Sat.Monotime.past job.deadline then
    finished t job
      (no_search (T.Unknown "timeout"))
      (fun t -> t.timeouts <- t.timeouts + 1)
  else begin
    let t0 = Sat.Monotime.now_s () in
    let hashes = job.hashes in
    let nclauses = Array.length hashes - 1 in
    let full = hashes.(nclauses) in
    let budget = combine_budget p.max_conflicts t.max_conflicts_cap in
    (* budgeted queries keep their exact budget semantics on the
       incremental path; only unbudgeted assumption-free bulk queries
       decompose *)
    let decomposed =
      match t.cube_threshold with
      | Some n ->
        nclauses >= n && p.assumptions = [] && budget = None
        && p.max_decisions = None
      | None -> false
    in
    let reg = Sat.Metrics.create () in
    let outcome, st, matched =
      if decomposed then
        solve_decomposed t job reg
          (Cnf.Formula.of_clauses
             (List.map Cnf.Clause.of_dimacs_list p.clauses))
      else solve_incremental t job reg ~budget ~hashes ~full ~nclauses
    in
    let outcome = cancelled_if_stopped outcome in
    if p.use_cache then
      Cache.store_result t.cache ~hash:full ~nclauses
        ~assumptions:p.assumptions outcome;
    roll_up t p.tenant reg;
    finished t job
      {
        outcome;
        cached = false;
        warm = matched > 0;
        matched_prefix = matched;
        time_s = Sat.Monotime.now_s () -. t0;
        conflicts = st.T.conflicts;
        decisions = st.T.decisions;
      }
      (fun t ->
         t.queries <- t.queries + 1;
         if decomposed then t.decomposed_n <- t.decomposed_n + 1;
         count_stop t outcome)
  end

(* one admitted query, run by a pool domain *)
let serve t job =
  Mutex.lock t.lock;
  t.queued <- t.queued - 1;
  t.inflight <- t.inflight + 1;
  Mutex.unlock t.lock;
  (try process t job
   with e ->
     (* the query dies, the pool and the daemon survive *)
     Mutex.lock t.lock;
     t.errors <- t.errors + 1;
     Mutex.unlock t.lock;
     (try
        job.on_done
          (no_search (T.Unknown ("error: " ^ Printexc.to_string e)))
      with _ -> ()));
  Mutex.lock t.lock;
  t.inflight <- t.inflight - 1;
  if t.inflight = 0 && t.queued = 0 then Condition.broadcast t.idle;
  Mutex.unlock t.lock

(* --- lifecycle ------------------------------------------------------------ *)

let create ?jobs ?(max_queue = 128) ?max_conflicts_cap ?cube_threshold
    ?cache () =
  let njobs =
    match jobs with
    | Some n -> max 1 n
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  {
    lock = Mutex.create ();
    idle = Condition.create ();
    exec = Sat.Exec.create njobs;
    max_queue;
    max_conflicts_cap;
    cube_threshold;
    cache = (match cache with Some c -> c | None -> Cache.create ());
    queued = 0;
    inflight = 0;
    draining = false;
    queries = 0;
    cancelled_n = 0;
    timeouts = 0;
    overloaded_n = 0;
    errors = 0;
    peak_queue = 0;
    decomposed_n = 0;
    tenants_lock = Mutex.create ();
    tenants = Hashtbl.create 8;
  }

(* An exact repeat is answered here, from the result cache, without
   queueing: a full queue delays solving, not looking up. *)
let submit t ?deadline ~on_done (params : Protocol.solve_params) =
  let t0 = Sat.Monotime.now_s () in
  let hashes = Fhash.prefix_hashes params.clauses in
  let job = { params; deadline; on_done; hashes; stop = Atomic.make false } in
  let nclauses = Array.length hashes - 1 in
  Mutex.lock t.lock;
  let verdict =
    if t.draining then Error Draining
    else
      match
        if params.use_cache then
          Cache.find_result t.cache ~hash:hashes.(nclauses) ~nclauses
            ~assumptions:params.assumptions
        else None
      with
      | Some outcome ->
        t.queries <- t.queries + 1;
        Ok (Some outcome)
      | None when t.queued >= t.max_queue ->
        t.overloaded_n <- t.overloaded_n + 1;
        Error Overloaded
      | None ->
        t.queued <- t.queued + 1;
        t.peak_queue <- max t.peak_queue t.queued;
        Ok None
  in
  Mutex.unlock t.lock;
  (match verdict with
   | Ok (Some outcome) ->
     on_done
       { (no_search outcome) with
         cached = true;
         time_s = Sat.Monotime.now_s () -. t0 }
   | Ok None -> Sat.Exec.submit t.exec (fun () -> serve t job)
   | Error _ -> ());
  Result.map (fun _ -> job) verdict

let cancel _ (job : job) = Atomic.set job.stop true

let solve t params =
  let m = Mutex.create () in
  let c = Condition.create () in
  let cell = ref None in
  let on_done a =
    Mutex.lock m;
    cell := Some a;
    Condition.signal c;
    Mutex.unlock m
  in
  match submit t ~on_done params with
  | Error e -> Error e
  | Ok _ ->
    Mutex.lock m;
    while Option.is_none !cell do
      Condition.wait c m
    done;
    Mutex.unlock m;
    Ok (Option.get !cell)

let drain t =
  Mutex.lock t.lock;
  t.draining <- true;
  while not (t.queued = 0 && t.inflight = 0) do
    Condition.wait t.idle t.lock
  done;
  Mutex.unlock t.lock

let shutdown t =
  drain t;
  Sat.Exec.shutdown t.exec

(* --- stats ---------------------------------------------------------------- *)

let stats_json t =
  Mutex.lock t.lock;
  let service =
    J.Obj
      [
        ("jobs", J.Int (Sat.Exec.size t.exec));
        ("queries", J.Int t.queries);
        ("cancelled", J.Int t.cancelled_n);
        ("timeouts", J.Int t.timeouts);
        ("overloaded", J.Int t.overloaded_n);
        ("errors", J.Int t.errors);
        ("decomposed", J.Int t.decomposed_n);
        ("queue_depth", J.Int t.queued);
        ("peak_queue_depth", J.Int t.peak_queue);
        ("inflight", J.Int t.inflight);
        ("draining", J.Bool t.draining);
      ]
  in
  Mutex.unlock t.lock;
  Mutex.lock t.tenants_lock;
  let tenants =
    Hashtbl.fold
      (fun name reg acc -> (name, Sat.Metrics.to_json reg) :: acc)
      t.tenants []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Mutex.unlock t.tenants_lock;
  J.Obj
    [
      ("service", service);
      ("cache", Cache.stats_json t.cache);
      ("tenants", J.Obj tenants);
    ]
