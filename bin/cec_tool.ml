(* Combinational equivalence checking of two BENCH netlists.

   cec_tool A.bench B.bench [--engine mono|fraig|bdd] [--stats]
            [--jobs N] [--no-elim]
            [--metrics FILE.json] [--trace FILE.jsonl]

   The default engine is the fraiging pipeline: structural hashing,
   simulation-derived candidate classes, incremental SAT sweeping.
   "mono" solves the monolithic miter CNF; "bdd" compares canonical
   output functions. *)

open Cmdliner

let run a b engine stats jobs no_elim metrics_path trace_path =
  let obs = Obs.setup ~tool:"cec_tool" metrics_path trace_path in
  let metrics = obs.Obs.metrics and trace = obs.Obs.trace in
  let load = Obs.load ~tool:"cec_tool" Circuit.Bench_format.parse_file in
  let c1 = load a in
  let c2 = load b in
  if jobs > 1 && engine <> "mono" && engine <> "fraig" then begin
    Printf.eprintf "--jobs requires --engine mono or fraig\n";
    exit 2
  end;
  let sweep_report = ref None in
  let report =
    match engine with
    | "fraig" ->
      let r = Eda.Sweep.check ~jobs ?metrics ?trace c1 c2 in
      sweep_report := Some r;
      {
        Eda.Equiv.verdict = r.Eda.Sweep.verdict;
        time_seconds = r.Eda.Sweep.times.Eda.Sweep.total_s;
        sat_stats = r.Eda.Sweep.solver_stats;
        bdd_nodes = r.Eda.Sweep.stats.Eda.Sweep.fraig_nodes;
      }
    | "mono" ->
      let engine =
        if jobs > 1 then
          Some
            (Sat.Solver.Portfolio
               { Sat.Portfolio.default_options with Sat.Portfolio.jobs })
        else Some (Sat.Solver.Cdcl Sat.Types.default)
      in
      let pipeline =
        { Sat.Solver.full_pipeline with Sat.Solver.elim = not no_elim }
      in
      Eda.Equiv.check_sat ?metrics ?trace ?engine ~pipeline c1 c2
    | "bdd" -> Eda.Equiv.check_bdd c1 c2
    | other ->
      Printf.eprintf "unknown engine %s (mono|fraig|bdd)\n" other;
      exit 2
  in
  if stats then begin
    (match !sweep_report with
     | Some r ->
       let s = r.Eda.Sweep.stats and t = r.Eda.Sweep.times in
       Printf.printf
         "stats: aig_nodes=%d fraig_nodes=%d classes=%d candidates=%d \
          merges=%d refuted=%d skipped=%d refinement_rounds=%d \
          sat_calls=%d sim_words=%d\n"
         s.Eda.Sweep.aig_nodes s.Eda.Sweep.fraig_nodes s.Eda.Sweep.classes
         s.Eda.Sweep.candidates s.Eda.Sweep.merges s.Eda.Sweep.refuted
         s.Eda.Sweep.skipped s.Eda.Sweep.refinement_rounds
         s.Eda.Sweep.sat_calls s.Eda.Sweep.simulation_words;
       Printf.printf "phases: simulate=%.3fs refine=%.3fs prove=%.3fs\n"
         t.Eda.Sweep.simulate_s t.Eda.Sweep.refine_s t.Eda.Sweep.prove_s
     | None -> ());
    (match report.Eda.Equiv.sat_stats with
     | Some st ->
       Printf.printf "solver: decisions=%d conflicts=%d propagations=%d\n"
         st.Sat.Types.decisions st.Sat.Types.conflicts
         st.Sat.Types.propagations
     | None -> ())
  end;
  match report.Eda.Equiv.verdict with
  | Eda.Equiv.Equivalent ->
    Printf.printf "EQUIVALENT (%.3fs)\n" report.Eda.Equiv.time_seconds;
    exit 0
  | Eda.Equiv.Inequivalent v ->
    let bits = String.init (Array.length v) (fun i -> if v.(i) then '1' else '0') in
    Printf.printf "NOT EQUIVALENT: distinguishing input %s (%.3fs)\n" bits
      report.Eda.Equiv.time_seconds;
    exit 1
  | Eda.Equiv.Inconclusive why ->
    Printf.printf "INCONCLUSIVE: %s\n" why;
    exit 3

let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"A" ~doc:"first netlist")
let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"B" ~doc:"second netlist")

let engine =
  Arg.(value & opt string "fraig"
       & info [ "engine" ]
         ~doc:"mono (one miter CNF), fraig (AIG sweeping; default) or bdd")

let stats =
  Arg.(value & flag
       & info [ "stats" ]
         ~doc:"print per-phase times and sweep counters before the verdict")

let jobs =
  Arg.(value & opt int 1
       & info [ "jobs" ]
         ~doc:"mono: solve the miter with N diversified parallel workers; \
               fraig: escalate residual hard output pairs to \
               cube-and-conquer on N workers")

let no_elim =
  Arg.(value & flag
       & info [ "no-elim" ]
         ~doc:"disable bounded variable elimination on the miter CNF \
               (mono engine only)")

let cmd =
  Cmd.v
    (Cmd.info "cec_tool" ~doc:"combinational equivalence checker")
    Term.(const run $ a $ b $ engine $ stats $ jobs $ no_elim
          $ Obs.metrics_term $ Obs.trace_term)

let () = exit (Cmd.eval cmd)
