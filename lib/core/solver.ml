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

let run_engine ?metrics ?trace ?deadline engine f =
  match engine with
  | Cdcl cfg ->
    let s = Cdcl.create ~config:cfg f in
    (match metrics with
     | Some m -> Cdcl.set_instruments s (Some (Metrics.solver_instruments m))
     | None -> ());
    Cdcl.set_tracer s trace;
    let outcome = Cdcl.solve ?deadline s in
    (match metrics with
     | Some m -> Metrics.add_stats m (Cdcl.stats s)
     | None -> ());
    let proof = if cfg.Types.proof_logging then Some (Cdcl.proof s) else None in
    (outcome, Some (Cdcl.stats s), proof)
  | Dpll cfg ->
    let outcome, st = Dpll.solve ~config:cfg ?deadline f in
    (match metrics with Some m -> Metrics.add_stats m st | None -> ());
    (outcome, Some st, None)
  | Walksat cfg ->
    let r = Local_search.solve ~config:cfg ?deadline f in
    (r.outcome, None, None)
  | Portfolio options ->
    let r = Portfolio.solve ?metrics ?trace ?deadline ~options f in
    (r.Portfolio.outcome, Some r.Portfolio.stats, None)
  | Cube_conquer options ->
    let r = Conquer.solve ?metrics ?trace ?deadline ~options f in
    (r.Conquer.outcome, Some r.Conquer.stats, None)

let solve ?metrics ?trace ?deadline ?(engine = Cdcl Types.default)
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
          Preprocess.run ?metrics ~elim:pipeline.elim
            ~probe_failed_literals:pipeline.probe_failed_literals ?proof
            ?deadline f
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
        match Equivalence.detect ?deadline f with
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
          Recursive_learning.strengthen ~depth:pipeline.recursive_learning
            ?deadline f
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
  (* the deadline is checked before each stage; the engine checks it
     on entry and during its search *)
  let ( >>= ) x k =
    match x with
    | (`Unsat | `Timeout) as stop -> stop
    | `Go y -> if Monotime.past deadline then `Timeout else k y
  in
  let staged =
    `Go (f, lift0) >>= stage_preprocess >>= stage_equivalence >>= stage_rl
  in
  match staged with
  | `Unsat ->
    (* preprocessing refuted the formula; its emitted stream already
       ends with the empty clause *)
    finish Types.Unsat None (combined_proof None)
  | `Timeout -> finish (Types.Unknown "timeout") None (combined_proof None)
  | `Go (g, lift) ->
    let outcome, st, engine_proof =
      phase "solve" (fun () -> run_engine ?metrics ?trace ?deadline engine g)
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
    (* the engine's hints number [g]'s clauses, not the stream's *)
    let engine_proof =
      if pipeline.preprocess then
        Option.map (Proof.renumber f (List.rev !pre_steps) g) engine_proof
      else engine_proof
    in
    finish outcome st (combined_proof engine_proof)

let solve_dimacs ?metrics ?trace ?engine ?pipeline text =
  solve ?metrics ?trace ?engine ?pipeline (Cnf.Dimacs.parse_string text)

(* --- auto-tuned front: measure the instance, then pick the recipe -------- *)

module Auto = struct
  type plan = {
    features : Autotune.features;
    policy : Autotune.policy;
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

  let plan ?(jobs = 1) ?(config = Types.default) f =
    let features = Autotune.extract f in
    let policy = Autotune.select ~jobs features in
    let engine =
      match policy.Autotune.engine with
      | Autotune.Sequential -> Cdcl config
      | Autotune.Portfolio_race j ->
        Portfolio
          { Portfolio.default_options with Portfolio.jobs = j; config }
      | Autotune.Cube_conquer j ->
        Cube_conquer
          { Conquer.default_options with Conquer.jobs = j; config }
    in
    { features; policy; engine;
      pipeline = pipeline_of policy.Autotune.preprocess }

  let solve_plan ?metrics ?trace ?deadline p f =
    Option.iter (fun m -> Autotune.emit_metrics m p.features p.policy) metrics;
    solve ?metrics ?trace ?deadline ~engine:p.engine ~pipeline:p.pipeline f

  let solve ?metrics ?trace ?deadline ?jobs ?config f =
    let p = plan ?jobs ?config f in
    (p, solve_plan ?metrics ?trace ?deadline p f)
end
