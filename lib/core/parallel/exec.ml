(* The executor: one fixed pool of domains serving submitted jobs and
   fork-join groups.  See exec.mli for the contract. *)

type t = {
  lock : Mutex.t;
  wake : Condition.t;
      (* idle workers and waiting [run] callers; every change they wait
         for broadcasts it *)
  jobs : (unit -> unit) Queue.t;
  mutable groups : group list;  (* runs in progress, newest first *)
  mutable closing : bool;
  mutable domains : unit Domain.t list;
}

(* A group's deques are lists under the pool lock: the slot's holder
   pushes and pops at the front (LIFO keeps a split's children hot in
   the slot's state), others steal from the back (FIFO takes the
   oldest, coarsest task).  Task counts are a few thousand at most, so
   the O(n) back removal never matters. *)
and group = {
  deques : (ctx -> unit) list array;
  held : bool array;  (* slot taken by a participant *)
  mutable ctxs : ctx array;
  mutable outstanding : int;  (* pushed and not yet finished *)
  mutable failure : exn option;
}

and ctx = {
  slot : int;
  metrics : Metrics.t option;
  trace : Trace.sink option;
  pool : t;
  group : group;
}

let size p = List.length p.domains
let slot c = c.slot
let metrics c = c.metrics
let trace c = c.trace

(* --- groups (all under the pool lock) ---------------------------------- *)

let pop g k =
  match g.deques.(k) with
  | [] -> None
  | x :: tl ->
    g.deques.(k) <- tl;
    Some x

let steal g k =
  match List.rev g.deques.(k) with
  | [] -> None
  | x :: rtl ->
    g.deques.(k) <- List.rev rtl;
    Some x

(* The next task for the participant holding slot [k], with the slot it
   runs in: its own front; else a free slot's queued task, adopting
   that slot; else the back of a busy slot. *)
let next g k =
  match pop g k with
  | Some task -> Some (k, task)
  | None -> (
    let w = Array.length g.deques in
    let others = List.init (w - 1) (fun i -> (k + 1 + i) mod w) in
    let free_with_work j = (not g.held.(j)) && g.deques.(j) <> [] in
    match List.find_opt free_with_work others with
    | Some j ->
      g.held.(k) <- false;
      g.held.(j) <- true;
      Option.map (fun task -> (j, task)) (pop g j)
    | None ->
      List.find_map (fun j -> Option.map (fun task -> (k, task)) (steal g j))
        others)

(* Runs tasks for the participant holding slot [k] until none is left
   for it or, for a pool worker helping out, until a submitted job
   waits.  Entered and left with the lock held; returns the slot it
   holds last. *)
let rec serve ~helper p g k =
  match if helper && not (Queue.is_empty p.jobs) then None else next g k with
  | None -> k
  | Some (k, task) ->
    let skip = g.failure <> None in
    Mutex.unlock p.lock;
    let failed =
      if skip then None
      else match task g.ctxs.(k) with () -> None | exception e -> Some e
    in
    Mutex.lock p.lock;
    if g.failure = None then g.failure <- failed;
    g.outstanding <- g.outstanding - 1;
    if g.outstanding = 0 then Condition.broadcast p.wake;
    serve ~helper p g k

let push c task =
  let p = c.pool and g = c.group in
  Mutex.lock p.lock;
  g.deques.(c.slot) <- task :: g.deques.(c.slot);
  g.outstanding <- g.outstanding + 1;
  Condition.broadcast p.wake;
  Mutex.unlock p.lock

(* a free slot of a group with queued tasks, for an idle worker *)
let free_slot g =
  if Array.exists (fun d -> d <> []) g.deques then Array.find_index not g.held
  else None

let run p ?metrics ?trace ~width tasks =
  let width = max 1 width in
  let g =
    { deques = Array.make width []; held = Array.make width false;
      ctxs = [||]; outstanding = List.length tasks; failure = None }
  in
  (* one participant needs no private copies *)
  let private_ make = if width = 1 then Fun.id else Option.map make in
  g.ctxs <-
    Array.init width (fun k ->
        { slot = k;
          metrics = private_ (fun _ -> Metrics.create ()) metrics;
          trace = private_ (fun _ -> Trace.make_sink ~worker:k ()) trace;
          pool = p;
          group = g });
  List.iteri
    (fun i task -> g.deques.(i mod width) <- task :: g.deques.(i mod width))
    tasks;
  Array.iteri (fun k d -> g.deques.(k) <- List.rev d) g.deques;
  g.held.(0) <- true;
  Mutex.lock p.lock;
  if width > 1 then begin
    p.groups <- g :: p.groups;
    Condition.broadcast p.wake
  end;
  let rec wait k =
    let k = serve ~helper:false p g k in
    if g.outstanding > 0 then begin
      Condition.wait p.wake p.lock;
      wait k
    end
  in
  wait 0;
  p.groups <- List.filter (fun h -> h != g) p.groups;
  Mutex.unlock p.lock;
  if width > 1 then
    Array.iter
      (fun c ->
         Option.iter
           (fun into -> Metrics.merge_into ~into (Option.get c.metrics))
           metrics;
         Option.iter (fun into -> Trace.absorb ~into (Option.get c.trace))
           trace)
      g.ctxs;
  Option.iter raise g.failure

(* --- the pool ------------------------------------------------------------ *)

(* A worker takes the oldest submitted job first, so an admitted query
   never waits behind tasks their callers can run alone; otherwise it
   helps a run with a free slot and queued tasks.  Entered with the
   lock held. *)
let rec worker p =
  if not (Queue.is_empty p.jobs) then begin
    let job = Queue.pop p.jobs in
    Mutex.unlock p.lock;
    (try job () with _ -> ());
    Mutex.lock p.lock;
    worker p
  end
  else
    match
      List.find_map (fun g -> Option.map (fun j -> (g, j)) (free_slot g))
        p.groups
    with
    | Some (g, j) ->
      g.held.(j) <- true;
      let k = serve ~helper:true p g j in
      g.held.(k) <- false;
      worker p
    | None ->
      if p.closing then Mutex.unlock p.lock
      else begin
        Condition.wait p.wake p.lock;
        worker p
      end

let submit p job =
  Mutex.lock p.lock;
  Queue.add job p.jobs;
  Condition.broadcast p.wake;
  Mutex.unlock p.lock

let shutdown p =
  Mutex.lock p.lock;
  p.closing <- true;
  Condition.broadcast p.wake;
  Mutex.unlock p.lock;
  List.iter Domain.join p.domains;
  p.domains <- []

let create n =
  let p =
    { lock = Mutex.create (); wake = Condition.create ();
      jobs = Queue.create (); groups = []; closing = false; domains = [] }
  in
  (try
     for _ = 1 to n do
       let d = Domain.spawn (fun () -> Mutex.lock p.lock; worker p) in
       p.domains <- d :: p.domains
     done
   with e ->
     shutdown p;
     raise e);
  p

let with_pool n f =
  let p = create n in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
