module N = Circuit.Netlist
module S = Circuit.Sequential
module Lit = Cnf.Lit
module Session = Sat.Session

type result =
  | Counterexample of bool array list
  | No_counterexample

type report = {
  result : result;
  bound_reached : int;
  per_bound_conflicts : (int * int) list;
  per_bound_stats : (int * Sat.Types.stats) list;
  total_stats : Sat.Types.stats;
  frames_encoded : int;
  time_seconds : float;
  timed_out : bool;
}

(* Frames unrolled into one AIG manager and queried through one
   session over it ([Aig.Session_cnf]): a query emits only the cone of
   its literal, constants fold through the frames and structurally equal
   logic is shared across them.  [state] holds the latch edges the next
   frame reads; [frames] the node edges of each frame, newest first. *)
type unrolling = {
  man : Aig.man;
  scnf : Aig.Session_cnf.t;
  mutable state : Aig.lit list;
  mutable frames : Aig.lit array list;
}

(* Frame 0 reads the init constants, or fresh inputs with [~free]. *)
let unroll ?config ?(free = false) seq =
  let man = Aig.create () in
  let state =
    List.map
      (fun b ->
         if free then Aig.add_input man
         else if b then Aig.const_true
         else Aig.const_false)
      seq.S.init
  in
  { man; scnf = Aig.Session_cnf.create ?config man; state; frames = [] }

let session u = Aig.Session_cnf.session u.scnf
let lit_of u e = Aig.Session_cnf.lit_of u.scnf e

(* Appends one frame over fresh primary inputs and the current latch
   edges; a comb input that is neither reads false, as in
   [Sequential.step]. *)
let add_frame u seq =
  let comb = seq.S.comb in
  let edges = Array.make (max 1 (N.num_nodes comb)) Aig.const_false in
  List.iter (fun id -> edges.(id) <- Aig.add_input u.man) seq.S.primary_inputs;
  List.iter2 (fun id e -> edges.(id) <- e) seq.S.state_inputs u.state;
  let frame =
    Aig.build_from u.man comb
      (Array.of_list (List.map (fun id -> edges.(id)) (N.inputs comb)))
  in
  u.frames <- frame :: u.frames;
  u.state <- List.map (fun id -> frame.(id)) seq.S.next_state;
  frame

let bad_node_of seq bad_output =
  match
    List.find_opt (fun (n, _) -> n = bad_output) (N.outputs seq.S.comb)
  with
  | Some (_, id) -> id
  | None -> invalid_arg ("Bmc.check: no output named " ^ bad_output)

(* primary-input vectors per frame, frame 0 first; an input outside
   every queried cone is a don't-care and reads false *)
let extract_inputs u seq m =
  List.rev_map
    (fun frame ->
       Array.of_list
         (List.map
            (fun pi -> Aig.Session_cnf.value u.scnf m frame.(pi))
            seq.S.primary_inputs))
    u.frames

let check ?metrics ?trace ?(config = Sat.Types.default) ?(bad_output = "bad")
    ?(incremental = true) ?timeout ~max_bound seq =
  S.validate seq;
  let t0 = Unix.gettimeofday () in
  let bad_node = bad_node_of seq bad_output in
  (* per-bound observability: bound time histogram + progress gauge;
     per-query solver deltas flow in through [Session.attach_metrics] *)
  let bound_time =
    Option.map
      (fun m ->
         Sat.Metrics.histogram m "bmc/bound_time_s"
           ~bounds:Sat.Metrics.time_bounds)
      metrics
  in
  let bound_gauge = Option.map (fun m -> Sat.Metrics.gauge m "bmc/bound") metrics in
  let frames_counter =
    Option.map (fun m -> Sat.Metrics.counter m "bmc/frames_encoded") metrics
  in
  let attach sess =
    Option.iter (Session.attach_metrics sess) metrics;
    match trace with Some _ -> Session.set_tracer sess trace | None -> ()
  in
  let per_bound = ref [] in
  let total = Sat.Types.mk_stats () in
  let frames_encoded = ref 0 in
  let result = ref None in
  let timed_out = ref false in
  let k = ref 0 in
  (* one absolute deadline for the whole run, checked inside each
     frame query's search *)
  let deadline =
    Option.map (fun secs -> Sat.Monotime.now_s () +. secs) timeout
  in
  let solve_frame sess assumptions =
    let o = Session.solve ~assumptions ?deadline sess in
    (match o with
     | Sat.Types.Unknown "timeout" -> timed_out := true
     | _ -> ());
    o
  in
  let fresh () =
    let u = unroll ~config seq in
    attach (session u);
    u
  in
  (* incremental: one unrolling across all bounds, so frames stay
     encoded and learned clauses and heuristic state carry over; from
     scratch (the reference mode for comparison): every bound unrolls
     frames 0..k afresh *)
  let shared = if incremental then Some (fresh ()) else None in
  while !result = None && !k < max_bound do
    let bt0 = Sat.Monotime.now_s () in
    let u = match shared with Some u -> u | None -> fresh () in
    for _ = List.length u.frames to !k do
      ignore (add_frame u seq);
      incr frames_encoded
    done;
    (* exactly one query per bound, even when [bad] folds to a
       constant, so deadlines and per-bound rows behave alike *)
    let sess = session u in
    (match solve_frame sess [ lit_of u (List.hd u.frames).(bad_node) ] with
     | Sat.Types.Sat m ->
       result := Some (Counterexample (extract_inputs u seq m))
     | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ -> ()
     | Sat.Types.Unknown _ -> result := Some No_counterexample);
    let d = Session.last_stats sess in
    Sat.Types.add_stats_into total d;
    per_bound := (!k, d) :: !per_bound;
    Option.iter
      (fun h -> Sat.Metrics.observe h (Sat.Monotime.now_s () -. bt0))
      bound_time;
    Option.iter (fun g -> Sat.Metrics.set_gauge g (float_of_int !k)) bound_gauge;
    incr k
  done;
  Option.iter
    (fun c -> Sat.Metrics.set_counter c !frames_encoded)
    frames_counter;
  {
    result = Option.value ~default:No_counterexample !result;
    bound_reached = !k;
    per_bound_conflicts =
      List.rev_map (fun (k, d) -> (k, d.Sat.Types.conflicts)) !per_bound;
    per_bound_stats = List.rev !per_bound;
    total_stats = total;
    frames_encoded = !frames_encoded;
    time_seconds = Unix.gettimeofday () -. t0;
    timed_out = !timed_out;
  }

(* Which state links does unreachability actually depend on?  Unroll
   frames 0..bound-1 with each frame's latch inputs fresh, tied to the
   previous frame's next state (frame 0's to init) by equivalence
   clauses in that frame's activation group, then ask
   [Session.minimize_assumptions] to shrink {activations} ∪ {bad at
   the last frame}: the activation literals that survive name the
   frames whose state link the refutation needs. *)
let explain_bound ?(config = Sat.Types.default) ?(bad_output = "bad") ~bound
    seq =
  S.validate seq;
  if bound < 1 then invalid_arg "Bmc.explain_bound: bound must be >= 1";
  let bad_node = bad_node_of seq bad_output in
  let u = unroll ~config seq in
  let sess = session u in
  let acts =
    List.init bound (fun _ ->
        let a = Session.new_activation sess in
        let prev = u.state in
        u.state <- List.map (fun _ -> Aig.add_input u.man) prev;
        List.iter2
          (fun s p ->
             let s = lit_of u s and p = lit_of u p in
             Session.add_clause_in sess ~group:a [ Lit.negate s; p ];
             Session.add_clause_in sess ~group:a [ s; Lit.negate p ])
          u.state prev;
        ignore (add_frame u seq);
        a)
  in
  let last_bad = lit_of u (List.hd u.frames).(bad_node) in
  match Session.minimize_assumptions sess (acts @ [ last_bad ]) with
  | None -> None (* a counterexample of this length exists *)
  | Some core ->
    Some
      (List.mapi (fun t a -> (t, a)) acts
       |> List.filter_map (fun (t, a) ->
              if List.mem a core then Some t else None))

type induction_result =
  | Proved of int
  | Refuted of bool array list
  | Bound_reached

(* Simple k-induction (no uniqueness constraints): sound for proving,
   incomplete.  Base: no counterexample within k steps of the initial
   state.  Step: from any state, k consecutive good cycles force a good
   (k+1)-th.

   Both obligations run over their own incremental session: the base
   session grows one frame per k (each bound queries only the newest
   frame — earlier bounds were refuted by earlier iterations), and the
   step session turns the previous iteration's queried [bad] into a
   permanent [~bad] before appending the next frame. *)
let prove_inductive ?metrics ?(config = Sat.Types.default)
    ?(bad_output = "bad") ?(max_k = 8) seq =
  S.validate seq;
  let bad_node = bad_node_of seq bad_output in
  (* base: frames from the initial state; step: from a free state *)
  let base = unroll ~config seq and step = unroll ~config ~free:true seq in
  Option.iter
    (fun m ->
       Session.attach_metrics (session base) m;
       Session.attach_metrics (session step) m)
    metrics;
  let bad_of u = lit_of u (add_frame u seq).(bad_node) in
  let step_prev_bad = ref (bad_of step) in
  let rec attempt k =
    if k > max_k then Bound_reached
    else
      (* base obligation at depth k: extend by frame k-1, query its bad *)
      match Session.solve ~assumptions:[ bad_of base ] (session base) with
      | Sat.Types.Sat m -> Refuted (extract_inputs base seq m)
      | Sat.Types.Unknown _ -> Bound_reached
      | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ ->
        (* step obligation: frames 0..k good, is frame k's bad forced
           off?  The previous iteration's queried bad becomes a
           permanent constraint. *)
        Session.add_clause (session step) [ Lit.negate !step_prev_bad ];
        let bad = bad_of step in
        step_prev_bad := bad;
        (match Session.solve ~assumptions:[ bad ] (session step) with
         | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ -> Proved k
         | Sat.Types.Sat _ | Sat.Types.Unknown _ -> attempt (k + 1))
  in
  attempt 1
