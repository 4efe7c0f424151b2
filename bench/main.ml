(* Benchmark harness: one section per experiment id of DESIGN.md /
   EXPERIMENTS.md.

   dune exec bench/main.exe              -- run everything
   dune exec bench/main.exe -- --only E5 -- run one experiment
   dune exec bench/main.exe -- --list    -- list experiment ids        *)

let experiments =
  [
    ("E1", "Table 1 + Figure 1: gate CNF formulas", Experiments_core.e1);
    ("E2", "CDCL (learning + NCB) vs DPLL", Experiments_core.e2);
    ("E3", "Figure 3: conflict analysis", Experiments_core.e3);
    ("E4", "Figure 4: recursive learning on CNF", Experiments_core.e4);
    ("E5", "Section 5 structural layer", Experiments_core.e5);
    ("E6", "randomized restarts", Experiments_core.e6);
    ("E7", "equivalency reasoning", Experiments_core.e7);
    ("E8", "incremental SAT over fault lists", Experiments_core.e8);
    ("E9", "ATPG coverage", Experiments_apps.e9);
    ("E10", "CEC: SAT vs BDD", Experiments_apps.e10);
    ("E11", "circuit delay computation", Experiments_apps.e11);
    ("E12", "bounded model checking", Experiments_apps.e12);
    ("E13", "FPGA routing crossover", Experiments_apps.e13);
    ("E14", "covering + prime implicants", Experiments_apps.e14);
    ("E15", "local search vs backtrack search", Experiments_apps.e15);
    ("E16", "pseudo-Boolean optimization", Experiments_apps.e16);
    ("E17", "clause deletion policies", Experiments_apps.e17);
    ("E18", "path delay faults, incremental", Experiments_apps.e18);
    ("E19", "crosstalk noise analysis", Experiments_apps.e19);
    ("E20", "functional vector generation", Experiments_apps.e20);
    ("E21", "EUF / processor verification", Experiments_apps.e21);
    ("E22", "incremental sessions vs from-scratch", Experiments_session.e22);
    ("E23", "parallel portfolio with clause sharing", Experiments_parallel.e23);
    ("E24", "propagation throughput + parse timing", Experiments_propagation.e24);
    ("E25", "observability overhead (metrics + tracing)", Experiments_observability.e25);
    ("E26", "preprocessing ablation (BVE)", Experiments_preprocessing.e26);
    ("E27", "fraiging CEC vs monolithic miter", Experiments_fraig.e27);
    ("E28", "SAT service daemon (satd)", Experiments_service.e28);
    ("E29", "cube-and-conquer vs portfolio vs sequential",
     Experiments_cubes.e29);
    ("E30", "proof logging overhead + DRAT trimming", Experiments_proofs.e30);
    ("E31", "per-instance auto-tuning vs default", Experiments_autotune.e31);
  ]

let () =
  let args = Array.to_list Sys.argv in
  if List.mem "--list" args then
    List.iter (fun (id, title, _) -> Printf.printf "%-5s %s\n" id title)
      experiments
  else begin
    let only =
      let rec find = function
        | "--only" :: id :: _ -> Some id
        | _ :: rest -> find rest
        | [] -> None
      in
      find args
    in
    let selected =
      match only with
      | None -> experiments
      | Some id ->
        (match List.filter (fun (eid, _, _) -> eid = id) experiments with
         | [] ->
           Printf.eprintf "unknown experiment %s (try --list)\n" id;
           exit 2
         | l -> l)
    in
    let t0 = Unix.gettimeofday () in
    Format.printf
      "Reproduction benchmarks for \"Boolean Satisfiability in Electronic \
       Design Automation\" (DAC 2000)@.";
    List.iter (fun (_, _, run) -> run ()) selected;
    Format.printf "@.total wall time: %.1fs@." (Unix.gettimeofday () -. t0)
  end
