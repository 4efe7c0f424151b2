type engine =
  | Cdcl of Types.config
  | Dpll of Types.config
  | Walksat of Local_search.config
  | Portfolio of Portfolio.options
  | Cube_conquer of Conquer.options

type pipeline = {
  preprocess : bool;
  elim : bool;
  probe_failed_literals : bool;
  equivalence : bool;
  recursive_learning : int;
}

let no_pipeline =
  { preprocess = false; elim = false; probe_failed_literals = false;
    equivalence = false; recursive_learning = 0 }

let full_pipeline =
  { preprocess = true; elim = true; probe_failed_literals = false;
    equivalence = true; recursive_learning = 1 }

(* Only a single sequential CDCL engine produces a complete DRAT
   stream: portfolio and cube-and-conquer workers import foreign
   clauses that never enter their own proofs, and the DPLL and local
   search engines record nothing. *)
let proof_producing = function
  | Cdcl c -> c.Types.proof_logging
  | Dpll _ | Walksat _ | Portfolio _ | Cube_conquer _ -> false

type report = {
  outcome : Types.outcome;
  solver_stats : Types.stats option;
  preprocess_stats : Preprocess.stats option;
  equivalence_merged : int;
  recursive_learning_implicates : int;
  proof : Types.proof_step list option;
  time_seconds : float;
}

let run_engine ?metrics ?trace engine f =
  match engine with
  | Cdcl cfg ->
    let s = Cdcl.create ~config:cfg f in
    (match metrics with
     | Some m -> Cdcl.set_instruments s (Some (Metrics.solver_instruments m))
     | None -> ());
    Cdcl.set_tracer s trace;
    let outcome = Cdcl.solve s in
    (match metrics with
     | Some m -> Metrics.add_stats m (Cdcl.stats s)
     | None -> ());
    let proof = if cfg.Types.proof_logging then Some (Cdcl.proof s) else None in
    (outcome, Some (Cdcl.stats s), proof)
  | Dpll cfg ->
    let outcome, st = Dpll.solve ~config:cfg f in
    (match metrics with Some m -> Metrics.add_stats m st | None -> ());
    (outcome, Some st, None)
  | Walksat cfg ->
    let r = Local_search.solve ~config:cfg f in
    (r.outcome, None, None)
  | Portfolio opts ->
    (* explicit options on the engine win over the per-call arguments *)
    let opts =
      { opts with
        Portfolio.metrics =
          (match opts.Portfolio.metrics with Some _ as m -> m | None -> metrics);
        trace =
          (match opts.Portfolio.trace with Some _ as t -> t | None -> trace) }
    in
    let r = Portfolio.solve ~options:opts f in
    (r.Portfolio.outcome, Some r.Portfolio.stats, None)
  | Cube_conquer opts ->
    let opts =
      { opts with
        Conquer.metrics =
          (match opts.Conquer.metrics with Some _ as m -> m | None -> metrics);
        trace =
          (match opts.Conquer.trace with Some _ as t -> t | None -> trace) }
    in
    let r = Conquer.solve ~options:opts f in
    (r.Conquer.outcome, Some r.Conquer.stats, None)

let solve ?metrics ?trace ?(engine = Cdcl Types.default)
    ?(pipeline = no_pipeline) f =
  let t0 = Unix.gettimeofday () in
  let phase name body =
    (match trace with
     | Some tr -> Trace.emit tr (Trace.Phase_begin name)
     | None -> ());
    (match metrics with Some m -> Metrics.phase_begin m name | None -> ());
    let r = body () in
    (match metrics with Some m -> Metrics.phase_end m name | None -> ());
    (match trace with
     | Some tr -> Trace.emit tr (Trace.Phase_end name)
     | None -> ());
    r
  in
  let preprocess_stats = ref None in
  let equivalence_merged = ref 0 in
  let rl_implicates = ref 0 in
  (* With a proof-producing engine the preprocessor emits its own DRAT
     steps (resolvent additions and clause deletions), and the stages
     that cannot yet certify their rewrites — equivalence reasoning and
     recursive learning — are skipped so the combined stream refutes
     the original formula. *)
  let proofs_on = proof_producing engine in
  let pre_steps = ref [] in
  (* each stage yields the formula to solve plus a model-lifting step *)
  let lift0 m = m in
  let stage_preprocess (f, lift) =
    if not pipeline.preprocess then `Go (f, lift)
    else
      phase "pipeline/preprocess" (fun () ->
        let proof =
          if proofs_on then Some (fun s -> pre_steps := s :: !pre_steps)
          else None
        in
        match
          Preprocess.run ~elim:pipeline.elim
            ~probe_failed_literals:pipeline.probe_failed_literals ?proof f
        with
        | Preprocess.Unsat -> `Unsat
        | Preprocess.Simplified simp ->
          preprocess_stats := Some simp.Preprocess.stats;
          (match metrics with
           | Some m ->
             let st = simp.Preprocess.stats in
             let c name v = Metrics.incr ~by:v (Metrics.counter m name) in
             c "preprocess/units" st.Preprocess.units;
             c "preprocess/pures" st.Preprocess.pures;
             c "preprocess/subsumed" st.Preprocess.subsumed;
             c "preprocess/strengthened" st.Preprocess.strengthened;
             c "preprocess/failed_literals" st.Preprocess.failed_literals;
             c "preprocess/vars_eliminated" st.Preprocess.eliminated;
             c "preprocess/clauses_removed" st.Preprocess.elim_clauses_removed
           | None -> ());
          `Go
            ( simp.Preprocess.formula,
              fun m -> lift (Preprocess.complete_model simp m) ))
  in
  let stage_equivalence (f, lift) =
    if (not pipeline.equivalence) || proofs_on then `Go (f, lift)
    else
      phase "pipeline/equivalence" (fun () ->
        match Equivalence.detect f with
        | Equivalence.Unsat_equiv -> `Unsat
        | Equivalence.Reduced red ->
          equivalence_merged := red.Equivalence.merged;
          `Go
            ( red.Equivalence.formula,
              fun m ->
                lift (Equivalence.complete_model ~rep:red.Equivalence.rep m) ))
  in
  let stage_rl (f, lift) =
    if pipeline.recursive_learning <= 0 || proofs_on then `Go (f, lift)
    else
      phase "pipeline/recursive_learning" (fun () ->
        let g, r =
          Recursive_learning.strengthen ~depth:pipeline.recursive_learning f
        in
        rl_implicates := List.length r.Recursive_learning.implicates;
        if r.Recursive_learning.unsat then `Unsat else `Go (g, lift))
  in
  let finish outcome solver_stats proof =
    {
      outcome;
      solver_stats;
      preprocess_stats = !preprocess_stats;
      equivalence_merged = !equivalence_merged;
      recursive_learning_implicates = !rl_implicates;
      proof;
      time_seconds = Unix.gettimeofday () -. t0;
    }
  in
  let combined_proof engine_steps =
    if not proofs_on then None
    else Some (List.rev_append !pre_steps (Option.value engine_steps ~default:[]))
  in
  let ( >>= ) x k = match x with `Unsat -> `Unsat | `Go y -> k y in
  let staged =
    stage_preprocess (f, lift0)
    >>= fun x -> stage_equivalence x
    >>= fun x -> stage_rl x
  in
  match staged with
  | `Unsat ->
    (* preprocessing refuted the formula; its emitted stream already
       ends with the empty clause *)
    finish Types.Unsat None (combined_proof None)
  | `Go (g, lift) ->
    let outcome, st, engine_proof =
      phase "solve" (fun () -> run_engine ?metrics ?trace engine g)
    in
    let outcome =
      match outcome with
      | Types.Sat m ->
        (* pad in case simplification dropped trailing variables *)
        let n = Cnf.Formula.nvars f in
        let padded =
          Array.init (max n (Array.length m)) (fun v ->
              if v < Array.length m then m.(v) else false)
        in
        Types.Sat (lift padded)
      | (Types.Unsat | Types.Unsat_assuming _ | Types.Unknown _) as o -> o
    in
    finish outcome st (combined_proof engine_proof)

let solve_dimacs ?metrics ?trace ?engine ?pipeline text =
  solve ?metrics ?trace ?engine ?pipeline (Cnf.Dimacs.parse_string text)

(* --- incremental front: simplify once, serve many queries ---------------- *)

module Incremental = struct
  module Lit = Cnf.Lit

  type t = {
    session : Session.t;
    rep : Lit.t array option;
        (* equivalence substitution over the original variable space *)
    original_nvars : int;
    preprocess_stats : Preprocess.stats option;
    equivalence_merged : int;
    recursive_learning_implicates : int;
  }

  (* Map a literal through the equivalence substitution.  Variables
     allocated after [open_session] (activation literals, frame copies)
     are outside [rep] and map to themselves. *)
  let subst t l =
    match t.rep with
    | None -> l
    | Some rep ->
      let v = Lit.var l in
      if v >= Array.length rep then l
      else
        let r = rep.(v) in
        if Lit.is_pos l then r else Lit.negate r

  let open_session ?metrics ?trace ?(config = Types.default)
      ?(pipeline = full_pipeline) f =
    let preprocess_stats = ref None in
    let equivalence_merged = ref 0 in
    let rl_implicates = ref 0 in
    let rep = ref None in
    let unsat = ref false in
    let fixes = ref [] in
    let g = ref f in
    if pipeline.preprocess && not !unsat then begin
      (* [pures] off: a pure literal's value is satisfiability-preserving
         but not implied, so it may not be baked into a formula the
         session will keep growing.  Units and failed literals ARE
         implied; they are re-asserted below so query models include
         them.  [elim] off: session growth may constrain any original
         variable, and an eliminated variable no longer exists in the
         simplified formula — there is no safe frozen set short of
         everything, so bounded elimination is disabled outright. *)
      match
        Preprocess.run ~pures:false ~elim:false
          ~probe_failed_literals:pipeline.probe_failed_literals !g
      with
      | Preprocess.Unsat -> unsat := true
      | Preprocess.Simplified simp ->
        preprocess_stats := Some simp.Preprocess.stats;
        fixes := simp.Preprocess.fix;
        g := simp.Preprocess.formula
    end;
    if pipeline.equivalence && not !unsat then begin
      match Equivalence.detect !g with
      | Equivalence.Unsat_equiv -> unsat := true
      | Equivalence.Reduced red ->
        equivalence_merged := red.Equivalence.merged;
        rep := Some red.Equivalence.rep;
        g := red.Equivalence.formula
    end;
    if pipeline.recursive_learning > 0 && not !unsat then begin
      let g', r =
        Recursive_learning.strengthen ~depth:pipeline.recursive_learning !g
      in
      rl_implicates := List.length r.Recursive_learning.implicates;
      if r.Recursive_learning.unsat then unsat := true else g := g'
    end;
    let session =
      if !unsat then begin
        let s = Session.create ~config () in
        Session.add_clause s [];
        s
      end
      else Session.of_formula ~config !g
    in
    (match metrics with
     | Some m -> Session.attach_metrics session m
     | None -> ());
    (match trace with Some _ -> Session.set_tracer session trace | None -> ());
    let t =
      {
        session;
        rep = !rep;
        original_nvars = Cnf.Formula.nvars f;
        preprocess_stats = !preprocess_stats;
        equivalence_merged = !equivalence_merged;
        recursive_learning_implicates = !rl_implicates;
      }
    in
    (* re-assert the preprocessor's implied fixes (units, failed
       literals) so every query model carries them *)
    if not !unsat then
      List.iter
        (fun (v, b) ->
           Session.add_clause session
             [ subst t (if b then Lit.pos v else Lit.neg_of_var v) ])
        !fixes;
    t

  let session t = t.session
  let new_var t = Session.new_var t.session
  let add_clause t lits = Session.add_clause t.session (List.map (subst t) lits)
  let new_activation t = Session.new_activation t.session

  let add_clause_in t ~group lits =
    Session.add_clause_in t.session ~group (List.map (subst t) lits)

  let release t a = Session.release t.session a

  let lift t m =
    let padded =
      Array.init
        (max t.original_nvars (Array.length m))
        (fun v -> if v < Array.length m then m.(v) else false)
    in
    match t.rep with
    | None -> padded
    | Some rep -> Equivalence.complete_model ~rep padded

  let solve ?(assumptions = []) ?max_conflicts ?max_decisions t =
    let assumptions = List.map (subst t) assumptions in
    match
      Session.solve ~assumptions ?max_conflicts ?max_decisions t.session
    with
    | Types.Sat m -> Types.Sat (lift t m)
    | (Types.Unsat | Types.Unsat_assuming _ | Types.Unknown _) as o -> o

  let last_stats t = Session.last_stats t.session
  let cumulative_stats t = Session.cumulative_stats t.session
  let queries t = Session.queries t.session
  let preprocess_stats t = t.preprocess_stats
  let equivalence_merged t = t.equivalence_merged
  let recursive_learning_implicates t = t.recursive_learning_implicates
end

(* --- auto-tuned front: measure the instance, then pick the recipe -------- *)

module Auto = struct
  type plan = {
    features : Autotune.features;
    policy : Autotune.policy;
    guidance : Types.guidance option;
    engine : engine;
    pipeline : pipeline;
  }

  (* Pre_basic deliberately drops the formula-rewriting stages
     (equivalence, recursive learning) along with elimination: the
     cheap tier should also be the predictable one. *)
  let pipeline_of = function
    | Autotune.Pre_off -> no_pipeline
    | Autotune.Pre_basic ->
      { preprocess = true; elim = false; probe_failed_literals = false;
        equivalence = false; recursive_learning = 0 }
    | Autotune.Pre_full -> full_pipeline

  let plan ?(jobs = 1) ?probes ?(config = Types.default) f =
    let features = Autotune.extract ?probes f in
    let policy = Autotune.select ~jobs features in
    let cfg =
      { config with
        Types.restarts = policy.Autotune.restarts }
    in
    let guidance =
      if policy.Autotune.guided then
        let g = Guide.of_formula f in
        if Guide.is_empty g then None else Some g
      else None
    in
    let cfg =
      match guidance with Some g -> Guide.apply_config g cfg | None -> cfg
    in
    let engine =
      match policy.Autotune.engine with
      | Autotune.Sequential -> Cdcl cfg
      | Autotune.Portfolio_race j ->
        Portfolio
          { Portfolio.default_options with Portfolio.jobs = j; config = cfg }
      | Autotune.Cube_conquer j ->
        Cube_conquer
          { Conquer.default_options with Conquer.jobs = j; config = cfg }
    in
    { features; policy; guidance; engine;
      pipeline = pipeline_of policy.Autotune.preprocess }

  let solve_plan ?metrics ?trace p f =
    (match metrics with
     | Some m ->
       Autotune.emit_metrics m p.features p.policy;
       Option.iter (Guide.emit_metrics m) p.guidance
     | None -> ());
    solve ?metrics ?trace ~engine:p.engine ~pipeline:p.pipeline f

  let solve ?metrics ?trace ?jobs ?probes ?config f =
    let p = plan ?jobs ?probes ?config f in
    (p, solve_plan ?metrics ?trace p f)
end
