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

(* Each frame is encoded into a scratch formula whose variables are then
   remapped into the live session; state inputs are bound to the previous
   frame's next-state literals. *)
let encode_frame ?group sess seq state_lits =
  let comb = seq.S.comb in
  let scratch = Cnf.Formula.create () in
  let pre_table = Hashtbl.create 16 in
  List.iter2
    (fun node l -> Hashtbl.replace pre_table node l)
    seq.S.state_inputs state_lits;
  let remap = Hashtbl.create 64 in
  let lit_of_scratch l =
    let v = Lit.var l in
    let nv =
      match Hashtbl.find_opt remap v with
      | Some nv -> nv
      | None ->
        let nv = Session.new_var sess in
        Hashtbl.replace remap v nv;
        nv
    in
    if Lit.is_pos l then Lit.pos nv else Lit.neg_of_var nv
  in
  let pre id =
    match Hashtbl.find_opt pre_table id with
    | Some session_lit ->
      (* a scratch var bound to the (positive) session literal *)
      let sv = Cnf.Formula.fresh_var scratch in
      Hashtbl.replace remap sv (Lit.var session_lit);
      assert (Lit.is_pos session_lit);
      Some (Lit.pos sv)
    | None -> None
  in
  let lit_of = Circuit.Encode.encode_into scratch ~pre comb in
  let add =
    match group with
    | Some g -> Session.add_clause_in sess ~group:g
    | None -> Session.add_clause sess
  in
  Cnf.Formula.iter_clauses scratch (fun cl ->
      add (List.map lit_of_scratch (Cnf.Clause.to_list cl)));
  fun id -> lit_of_scratch (lit_of id)

let bad_node_of seq bad_output =
  match
    List.find_opt (fun (n, _) -> n = bad_output) (N.outputs seq.S.comb)
  with
  | Some (_, id) -> id
  | None -> invalid_arg ("Bmc.check: no output named " ^ bad_output)

(* Fresh session whose frame-0 state literals are constants from init. *)
let initial_state sess seq =
  List.map
    (fun b ->
       let v = Session.new_var sess in
       Session.add_clause sess [ (if b then Lit.pos v else Lit.neg_of_var v) ];
       Lit.pos v)
    seq.S.init

let extract_inputs seq frames m =
  List.rev_map
    (fun fr ->
       List.map
         (fun pi ->
            let l = fr pi in
            let v = m.(Lit.var l) in
            if Lit.is_pos l then v else not v)
         seq.S.primary_inputs
       |> Array.of_list)
    frames

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
  if incremental then begin
    (* one session across all bounds: frames stay encoded, learned
       clauses and heuristic state carry over from bound to bound *)
    let sess = Session.create ~config () in
    attach sess;
    let frames : (N.node_id -> Lit.t) list ref = ref [] in
    let state = ref (initial_state sess seq) in
    while !result = None && !k < max_bound do
      let bt0 = Sat.Monotime.now_s () in
      let frame = encode_frame sess seq !state in
      incr frames_encoded;
      frames := frame :: !frames;
      let bad_lit = frame bad_node in
      (match solve_frame sess [ bad_lit ] with
       | Sat.Types.Sat m ->
         result := Some (Counterexample (extract_inputs seq !frames m))
       | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ -> ()
       | Sat.Types.Unknown _ -> result := Some No_counterexample);
      let d = Session.last_stats sess in
      Sat.Types.add_stats_into total d;
      per_bound := (!k, d) :: !per_bound;
      state := List.map frame seq.S.next_state;
      Option.iter
        (fun h -> Sat.Metrics.observe h (Sat.Monotime.now_s () -. bt0))
        bound_time;
      Option.iter (fun g -> Sat.Metrics.set_gauge g (float_of_int !k)) bound_gauge;
      incr k
    done
  end
  else
    (* from-scratch reference mode (for comparison): every bound builds a
       fresh session and re-encodes frames 0..k *)
    while !result = None && !k < max_bound do
      let bt0 = Sat.Monotime.now_s () in
      let sess = Session.create ~config () in
      attach sess;
      let frames : (N.node_id -> Lit.t) list ref = ref [] in
      let state = ref (initial_state sess seq) in
      for _ = 0 to !k do
        let frame = encode_frame sess seq !state in
        incr frames_encoded;
        frames := frame :: !frames;
        state := List.map frame seq.S.next_state
      done;
      let bad_lit = (List.hd !frames) bad_node in
      (match solve_frame sess [ bad_lit ] with
       | Sat.Types.Sat m ->
         result := Some (Counterexample (extract_inputs seq !frames m))
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

(* Which frames does unreachability actually depend on?  Re-encode
   frames 0..bound-1 with each frame's transition clauses guarded by an
   activation literal, then ask [Session.minimize_assumptions] to shrink
   {activations} ∪ {bad at the last frame}: the activation literals that
   survive name the frames the refutation needs. *)
let explain_bound ?(config = Sat.Types.default) ?(bad_output = "bad") ~bound
    seq =
  S.validate seq;
  if bound < 1 then invalid_arg "Bmc.explain_bound: bound must be >= 1";
  let bad_node = bad_node_of seq bad_output in
  let sess = Session.create ~config () in
  let state = ref (initial_state sess seq) in
  let acts = ref [] in
  let last_bad = ref (Lit.pos 0) in
  for _t = 0 to bound - 1 do
    let a = Session.new_activation sess in
    acts := a :: !acts;
    let frame = encode_frame ~group:a sess seq !state in
    state := List.map frame seq.S.next_state;
    last_bad := frame bad_node
  done;
  let acts = List.rev !acts in
  match Session.minimize_assumptions sess (acts @ [ !last_bad ]) with
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
  (* base session: frames from the initial state *)
  let base = Session.create ~config () in
  let base_frames : (N.node_id -> Lit.t) list ref = ref [] in
  let base_state = ref (initial_state base seq) in
  (* step session: frames from a free (arbitrary) state *)
  let step = Session.create ~config () in
  Option.iter
    (fun m ->
       Session.attach_metrics base m;
       Session.attach_metrics step m)
    metrics;
  let step_state =
    ref (List.map (fun _ -> Lit.pos (Session.new_var step)) seq.S.init)
  in
  let step_frame0 = encode_frame step seq !step_state in
  step_state := List.map step_frame0 seq.S.next_state;
  let step_prev_bad = ref (step_frame0 bad_node) in
  let rec attempt k =
    if k > max_k then Bound_reached
    else begin
      (* base obligation at depth k: extend by frame k-1, query its bad *)
      let frame = encode_frame base seq !base_state in
      base_frames := frame :: !base_frames;
      base_state := List.map frame seq.S.next_state;
      match Session.solve ~assumptions:[ frame bad_node ] base with
      | Sat.Types.Sat m -> Refuted (extract_inputs seq !base_frames m)
      | Sat.Types.Unknown _ -> Bound_reached
      | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ ->
        (* step obligation: frames 0..k good, is frame k's bad forced
           off?  The previous iteration's queried bad becomes a
           permanent constraint. *)
        Session.add_clause step [ Lit.negate !step_prev_bad ];
        let frame = encode_frame step seq !step_state in
        step_state := List.map frame seq.S.next_state;
        let bad = frame bad_node in
        step_prev_bad := bad;
        (match Session.solve ~assumptions:[ bad ] step with
         | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ -> Proved k
         | Sat.Types.Sat _ | Sat.Types.Unknown _ -> attempt (k + 1))
    end
  in
  attempt 1
