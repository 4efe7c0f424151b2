(* March-style lookahead cube generation.  See cube.mli for the
   contract; Cdcl's probing primitives (probe_push / probe_assert) do
   the propagation work. *)

module Lit = Cnf.Lit

type options = {
  depth : int;
  max_cubes : int;
  candidates : int;
  max_probes : int;
  seed : int;
}

let default_options =
  { depth = 8; max_cubes = 2048; candidates = 24; max_probes = 400_000;
    seed = 1 }

type t = {
  cubes : Lit.t list list;
  units : Lit.t list;
  refuted : Lit.t list list;
  decided : Types.outcome option;
  probes : int;
  failed_literals : int;
  stats : Types.stats;
  time_seconds : float;
}

let generate ?(options = default_options) ?stop ?deadline ?metrics ?trace f =
  let t0 = Unix.gettimeofday () in
  (match metrics with
   | Some m -> Metrics.phase_begin m "cube/lookahead"
   | None -> ());
  let opts =
    { options with
      depth = max 1 options.depth;
      max_cubes = max 1 options.max_cubes;
      candidates = max 1 options.candidates;
      max_probes = max 1 options.max_probes }
  in
  let cfg = { Types.default with Types.random_seed = opts.seed } in
  let s = Cdcl.create ~config:cfg f in
  let nvars = Cdcl.nvars s in
  (* static literal weights, Jeroslow–Wang style: a clause of length k
     contributes 2^(2-k) to each literal, so falsifying a literal of a
     short clause counts as a bigger reduction *)
  let w = Array.make (max 2 (2 * nvars)) 0. in
  Cnf.Formula.iter_clauses f (fun c ->
      let lits = Cnf.Clause.to_list c in
      let k = List.length lits in
      let inc = if k >= 16 then 0. else 2. ** float_of_int (2 - k) in
      List.iter
        (fun l -> if l < Array.length w then w.(l) <- w.(l) +. inc)
        lits);
  let cubes = ref [] and units = ref [] and refuted = ref [] in
  let n_cubes = ref 0 in
  let probes = ref 0 and failed = ref 0 in
  let decided = ref None in
  let full_model () =
    (* propagation fixpoint with every variable assigned and no
       falsified clause: the trail is a model *)
    Types.Sat (Array.init nvars (fun v -> Cdcl.value_var s v = 1))
  in
  (* reduction of one probe: trail growth plus the weight of the clauses
     each new assignment shortens *)
  let reduction from_ to_ =
    let r = ref 0. in
    for i = from_ to to_ - 1 do
      r := !r +. 1. +. w.(Lit.negate (Cdcl.trail_get s i))
    done;
    !r
  in
  let emit path depth =
    incr n_cubes;
    let cube = List.rev path in
    cubes := cube :: !cubes;
    match trace with
    | Some tr ->
      Trace.emit tr (Trace.Cube_emit { depth; size = List.length cube })
    | None -> ()
  in
  (* candidate preselection: the top unassigned variables by static
     weight (both phases must matter, hence the march product+sum) *)
  let static_score v =
    let p = w.(Lit.pos v) and n = w.(Lit.neg_of_var v) in
    (p *. n) +. p +. n
  in
  let pick_candidates () =
    let free = ref [] and n = ref 0 in
    for v = nvars - 1 downto 0 do
      if Cdcl.value_var s v < 0 then begin
        free := v :: !free;
        incr n
      end
    done;
    if !n <= opts.candidates then !free
    else begin
      let arr = Array.of_list !free in
      Array.sort
        (fun a b ->
           let c = Float.compare (static_score b) (static_score a) in
           if c <> 0 then c else compare a b)
        arr;
      Array.to_list (Array.sub arr 0 opts.candidates)
    end
  in
  (* checked once per node: a stop or a passed deadline ends the
     lookahead as [Unknown] *)
  let stopped () =
    (match (stop, deadline) with
     | Some st, _ when Atomic.get st ->
       decided := Some (Types.Unknown "interrupted")
     | _, Some d when Monotime.now_s () > d ->
       decided := Some (Types.Unknown "timeout")
     | _ -> ());
    !decided <> None
  in
  let rec node ~decisions ~path ~depth =
    if !decided <> None || stopped () then ()
    else if not (Cdcl.consistent s) then decided := Some Types.Unsat
    else if Cdcl.trail_size s >= nvars then decided := Some (full_model ())
    else if
      depth >= opts.depth || !n_cubes >= opts.max_cubes
      || !probes >= opts.max_probes
    then emit path depth
    else begin
      (* lookahead: probe both phases of every candidate; failed
         literals fold back into the current prefix as they surface *)
      let refuted_here = ref false in
      let best = ref None in
      let implied = ref path in
      let assert_implied l =
        incr failed;
        if Cdcl.probe_assert s l then begin
          if Cdcl.decision_level s = 0 then units := l :: !units
          else implied := l :: !implied
        end
        else refuted_here := true
      in
      List.iter
        (fun v ->
           if
             (not !refuted_here)
             && !decided = None
             && Cdcl.value_var s v < 0
             && !probes < opts.max_probes
           then begin
             let lp = Lit.pos v and ln = Lit.neg_of_var v in
             let probe l =
               incr probes;
               match Cdcl.probe_push s l with
               | Cdcl.Probe_conflict -> None
               | Cdcl.Probe_ok (a, b) ->
                 let r = reduction a b in
                 Cdcl.probe_pop s;
                 Some r
             in
             let rp = probe lp in
             let rn = probe ln in
             match (rp, rn) with
             | None, None ->
               (* both phases conflict: the prefix itself is refuted *)
               refuted_here := true
             | None, Some _ -> assert_implied ln
             | Some _, None -> assert_implied lp
             | Some a, Some b ->
               let score = (a *. b) +. a +. b in
               (match !best with
                | Some (s0, _, _, _) when s0 >= score -> ()
                | _ -> best := Some (score, v, a, b))
           end)
        (pick_candidates ());
      if !decided <> None then ()
      else if !refuted_here then begin
        if Cdcl.decision_level s = 0 || not (Cdcl.consistent s) then
          decided := Some Types.Unsat
        else
          (* ¬(decision prefix) is an implicate: the implied literals all
             follow from the decisions, so the short record suffices *)
          refuted := List.rev decisions :: !refuted
      end
      else if Cdcl.trail_size s >= nvars then decided := Some (full_model ())
      else begin
        let v, r_pos, r_neg =
          match !best with
          | Some (_, v, a, b) when Cdcl.value_var s v < 0 -> (v, a, b)
          | _ ->
            (* every scored candidate got assigned by a later failed
               literal (or the probe budget ran dry): take the first
               free variable *)
            let rec first v =
              if Cdcl.value_var s v < 0 then v else first (v + 1)
            in
            (first 0, 1., 1.)
        in
        (* stronger-reduction phase first: refutations surface earlier *)
        let l1, l2 =
          if r_pos >= r_neg then (Lit.pos v, Lit.neg_of_var v)
          else (Lit.neg_of_var v, Lit.pos v)
        in
        let branch l =
          if !decided = None then
            match Cdcl.probe_push s l with
            | Cdcl.Probe_conflict ->
              (* the probe scores are stale once failed literals landed
                 in between; a branch can close that probing left open *)
              refuted := List.rev (l :: decisions) :: !refuted
            | Cdcl.Probe_ok _ ->
              node ~decisions:(l :: decisions) ~path:(l :: !implied)
                ~depth:(depth + 1);
              Cdcl.probe_pop s
        in
        branch l1;
        branch l2
      end
    end
  in
  if not (Cdcl.propagate_root s) then decided := Some Types.Unsat
  else node ~decisions:[] ~path:[] ~depth:0;
  (* every branch refuted and nothing emitted: the cover is empty, the
     formula is unsatisfiable *)
  if !decided = None && !cubes = [] then decided := Some Types.Unsat;
  let time_seconds = Unix.gettimeofday () -. t0 in
  (match metrics with
   | Some m ->
     let c name v = Metrics.incr ~by:v (Metrics.counter m name) in
     c "cube/generated" !n_cubes;
     c "cube/probes" !probes;
     c "cube/failed_literals" !failed;
     c "cube/units" (List.length !units);
     c "cube/refuted_branches" (List.length !refuted);
     Metrics.add_stats m (Cdcl.stats s);
     Metrics.phase_end m "cube/lookahead"
   | None -> ());
  {
    cubes = List.rev !cubes;
    units = List.rev !units;
    refuted = List.rev !refuted;
    decided = !decided;
    probes = !probes;
    failed_literals = !failed;
    stats = Types.copy_stats (Cdcl.stats s);
    time_seconds;
  }
