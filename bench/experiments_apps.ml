(* Experiments E9-E20: the EDA applications of Section 3. *)

module T = Sat.Types

(* E9 — ATPG coverage across circuit families. *)
let e9 () =
  Util.header "E9  ATPG: stuck-at fault coverage and redundancy"
    "paper: Sec. 3 (test generation [20, 25, 38])";
  let circuits =
    [
      ("c17", Circuit.Generators.c17 ());
      ("ripple6", Circuit.Generators.ripple_adder ~bits:6);
      ("carryskip6", Circuit.Generators.carry_skip_adder ~bits:6 ~block:3);
      (* constant folding first: the array multiplier's top carry row is
         dead logic whose faults would otherwise read as redundancy *)
      ("mult4", Circuit.Transform.simplify (Circuit.Generators.multiplier ~bits:4));
      ("alu3", Circuit.Generators.alu ~bits:3);
      ("ripple4+redund",
       Circuit.Transform.add_redundancy ~seed:5 ~count:3
         (Circuit.Generators.ripple_adder ~bits:4));
    ]
  in
  Util.row "%-16s %7s %9s %10s %8s %8s %9s %8s@." "circuit" "faults"
    "detected" "redundant" "vectors" "dropped" "coverage" "time";
  Util.line ();
  List.iter
    (fun (name, c) ->
       let s = Eda.Atpg.run c in
       Util.row "%-16s %7d %9d %10d %8d %8d %8.1f%% %7.3fs@." name
         s.Eda.Atpg.total s.Eda.Atpg.detected s.Eda.Atpg.redundant
         (List.length s.Eda.Atpg.vectors) s.Eda.Atpg.dropped_by_simulation
         (100. *. float_of_int s.Eda.Atpg.detected
          /. float_of_int s.Eda.Atpg.total)
         s.Eda.Atpg.time_seconds)
    circuits;
  (* covering applied back onto testing: static test-set compaction *)
  Util.row "@.test-set compaction (minimum covering subset, Sec. 3 [9, 23]):@.";
  List.iter
    (fun (name, c) ->
       let s = Eda.Atpg.run c in
       let r, dt = Util.time (fun () -> Eda.Compaction.compact c s.Eda.Atpg.vectors) in
       Util.row "  %-14s %3d -> %3d vectors (%d faults kept covered) %7.3fs@."
         name r.Eda.Compaction.original
         (List.length r.Eda.Compaction.compacted)
         r.Eda.Compaction.faults_covered dt)
    [
      ("ripple6", Circuit.Generators.ripple_adder ~bits:6);
      ("alu3", Circuit.Generators.alu ~bits:3);
      ("carryskip6", Circuit.Generators.carry_skip_adder ~bits:6 ~block:3);
    ];
  Util.row
    "expected shape: full coverage of testable faults; redundancy only \
     where injected; fault simulation covers most faults without a SAT \
     call; the covering step then shrinks the vector set at no coverage \
     loss.@."

(* E10 — CEC: SAT vs BDD. *)
let e10 () =
  Util.header "E10  Equivalence checking: SAT miter vs BDD"
    "paper: Sec. 1, Sec. 3 (CEC [16, 19, 26])";
  let node_limit = 200_000 in
  Util.row "%-20s | %-22s | %-20s | %-22s@." "pair"
    (Printf.sprintf "bdd (limit %dk nodes)" (node_limit / 1000))
    "sat miter" "sat sweeping";
  Util.line ();
  let families =
    List.concat
      [
        List.map
          (fun bits ->
             let c = Circuit.Generators.ripple_adder ~bits in
             (Printf.sprintf "adder%d vs demorgan" bits, c,
              Circuit.Transform.demorgan ~seed:bits c))
          [ 4; 8 ];
        List.map
          (fun bits ->
             let c = Circuit.Generators.multiplier ~bits in
             (Printf.sprintf "mult%d vs rewrite" bits, c,
              Circuit.Transform.rewrite_xor c))
          [ 3; 5; 7 ];
        List.map
          (fun bits ->
             (Printf.sprintf "array%d vs wallace" bits,
              Circuit.Generators.multiplier ~bits,
              Circuit.Generators.wallace_multiplier ~bits))
          [ 4; 5 ];
        [ ("ripple8 vs koggestone",
           Circuit.Generators.ripple_adder ~bits:8,
           Circuit.Generators.kogge_stone_adder ~bits:8) ];
        List.map
          (fun (inputs, gates) ->
             let c = Circuit.Generators.random_circuit ~inputs ~gates ~seed:5 in
             (Printf.sprintf "random %d-in/%dg" inputs gates, c,
              Circuit.Transform.demorgan ~seed:6 c))
          [ (40, 700); (48, 1200) ];
      ]
  in
  List.iter
    (fun (name, c1, c2) ->
       let b = Eda.Equiv.check_bdd ~node_limit c1 c2 in
       let s = Eda.Equiv.check_sat ~pipeline:Sat.Solver.full_pipeline c1 c2 in
       let w = Eda.Sweep.check c1 c2 in
       let verdict_label time = function
         | Eda.Equiv.Equivalent -> Printf.sprintf "EQ   %7.3fs" time
         | Eda.Equiv.Inequivalent _ -> Printf.sprintf "DIFF %7.3fs" time
         | Eda.Equiv.Inconclusive _ ->
           Printf.sprintf "BLOWUP (>%dk)" (node_limit / 1000)
       in
       let label (r : Eda.Equiv.report) =
         match r.Eda.Equiv.verdict with
         | Eda.Equiv.Equivalent ->
           Printf.sprintf "EQ   %7.3fs %7dn" r.Eda.Equiv.time_seconds
             r.Eda.Equiv.bdd_nodes
         | v -> verdict_label r.Eda.Equiv.time_seconds v
       in
       Util.row "%-20s | %-22s | %-20s | %-22s@." name (label b)
         (verdict_label s.Eda.Equiv.time_seconds s.Eda.Equiv.verdict)
         (Printf.sprintf "%s %5d mrg"
            (verdict_label w.Eda.Sweep.times.Eda.Sweep.total_s
               w.Eda.Sweep.verdict)
            w.Eda.Sweep.stats.Eda.Sweep.merges))
    families;
  (* the AIG route: structural merging before any SAT call *)
  Util.row "@.AIG-merged miters (hash-consing discharges shared logic):@.";
  List.iter
    (fun (name, c1, c2) ->
       let r = Eda.Sweep.check c1 c2 in
       let verdict =
         match r.Eda.Sweep.verdict with
         | Eda.Equiv.Equivalent -> "EQ"
         | Eda.Equiv.Inequivalent _ -> "DIFF"
         | Eda.Equiv.Inconclusive _ -> "?"
       in
       let st = r.Eda.Sweep.stats in
       Util.row "  %-22s %-5s %7.3fs  %6d aig -> %6d fraig nodes%s@." name
         verdict r.Eda.Sweep.times.Eda.Sweep.total_s st.Eda.Sweep.aig_nodes
         st.Eda.Sweep.fraig_nodes
         (if st.Eda.Sweep.sat_calls = 0 then "  (no SAT call needed)" else ""))
    [
      ("mult7 vs rewrite", Circuit.Generators.multiplier ~bits:7,
       Circuit.Transform.rewrite_xor (Circuit.Generators.multiplier ~bits:7));
      ("mult5 vs itself", Circuit.Generators.multiplier ~bits:5,
       Circuit.Netlist.copy (Circuit.Generators.multiplier ~bits:5));
      ("random 48-in/1200g",
       Circuit.Generators.random_circuit ~inputs:48 ~gates:1200 ~seed:5,
       Circuit.Transform.demorgan ~seed:6
         (Circuit.Generators.random_circuit ~inputs:48 ~gates:1200 ~seed:5));
    ];
  Util.row
    "expected shape: BDD cost tracks the function (canonical form), so it \
     wins on arithmetic of moderate width but blows past the node limit on \
     wide random logic regardless of similarity; the SAT miter exploits \
     structural similarity and keeps answering; incremental SAT sweeping \
     (simulation-guided internal equivalences) beats the monolithic miter \
     wherever the implementations share structure; identical structure is \
     discharged outright by AIG hash-consing — the combined-methods \
     message of [16, 25].@."

(* E11 — circuit delay computation. *)
let e11 () =
  Util.header "E11  True (floating-mode) vs topological delay"
    "paper: Sec. 3 (delay computation [28, 36])";
  Util.row "%-26s %-8s %6s %6s %s@." "circuit" "output" "topo" "true"
    "false path";
  Util.line ();
  List.iter
    (fun (name, c) ->
       List.iter
         (fun r ->
            if r.Eda.Delay.output = "cout" || r.Eda.Delay.output = "par" then
              Util.row "%-26s %-8s %6d %6d %s@." name r.Eda.Delay.output
                r.Eda.Delay.topological r.Eda.Delay.true_floating
                (if r.Eda.Delay.false_path then "yes" else "no"))
         (Eda.Delay.report c))
    [
      ("ripple8", Circuit.Generators.ripple_adder ~bits:8);
      ("carryskip8/b2", Circuit.Generators.carry_skip_adder ~bits:8 ~block:2);
      ("carryskip8/b4", Circuit.Generators.carry_skip_adder ~bits:8 ~block:4);
      ("carryskip12/b4", Circuit.Generators.carry_skip_adder ~bits:12 ~block:4);
      ("koggestone8", Circuit.Generators.kogge_stone_adder ~bits:8);
      ("parity8", Circuit.Generators.parity ~bits:8);
    ];
  Util.row
    "expected shape: ripple and parity are delay-exact; carry-skip \
     carry-outs have false paths (true < topological), growing with \
     width.@."

(* E12 — bounded model checking. *)
let e12 () =
  Util.header "E12  Bounded model checking of counters"
    "paper: Sec. 3 (BMC [5])";
  Util.row "%-22s %8s %10s %10s %9s@." "design" "cex len" "max k" "conflicts"
    "time";
  Util.line ();
  List.iter
    (fun (name, bits, buggy_at, bound) ->
       let seq = Circuit.Sequential.counter ~bits ~buggy_at in
       let r = Eda.Bmc.check ~max_bound:bound seq in
       let cex =
         match r.Eda.Bmc.result with
         | Eda.Bmc.Counterexample frames -> string_of_int (List.length frames)
         | Eda.Bmc.No_counterexample -> "none"
       in
       let conflicts =
         List.fold_left (fun a (_, c) -> a + c) 0 r.Eda.Bmc.per_bound_conflicts
       in
       Util.row "%-22s %8s %10d %10d %8.3fs@." name cex r.Eda.Bmc.bound_reached
         conflicts r.Eda.Bmc.time_seconds)
    [
      ("counter3", 3, None, 12);
      ("counter4", 4, None, 20);
      ("counter5", 5, None, 36);
      ("counter4 bug@3", 4, Some 3, 20);
      ("counter5 bug@5", 5, Some 5, 36);
      ("counter5 bound 10", 5, None, 10);
    ];
  (* unbounded proofs by k-induction where BMC can only bound-check *)
  Util.row "@.k-induction (unbounded):@.";
  List.iter
    (fun (name, seq, max_k) ->
       let r, dt = Util.time (fun () -> Eda.Bmc.prove_inductive ~max_k seq) in
       let label =
         match r with
         | Eda.Bmc.Proved k -> Printf.sprintf "PROVED for all depths (k=%d)" k
         | Eda.Bmc.Refuted frames ->
           Printf.sprintf "REFUTED (cex length %d)" (List.length frames)
         | Eda.Bmc.Bound_reached -> "inconclusive (not inductive)"
       in
       Util.row "  %-18s %-34s %7.3fs@." name label dt)
    [
      ("ring5", Circuit.Sequential.ring_counter ~bits:5, 3);
      ("ring12", Circuit.Sequential.ring_counter ~bits:12, 3);
      ("counter4", Circuit.Sequential.counter ~bits:4 ~buggy_at:None, 20);
      ("counter4 bug@3",
       Circuit.Sequential.counter ~bits:4 ~buggy_at:(Some 3), 20);
    ];
  Util.row
    "expected shape: counterexample length 2^bits for correct counters \
     (bad at all-ones), buggy designs fail at the injected depth + 2; \
     too-small bounds report none.@."

(* E13 — FPGA routing. *)
let e13 () =
  Util.header "E13  SAT-based detailed routing: channel-width crossover"
    "paper: Sec. 3 (FPGA routing [29, 30])";
  let seeds = [ 101; 102; 103; 104; 105; 106 ] in
  Util.row "%-8s %10s %12s %10s@." "tracks" "routable" "decisions" "time";
  Util.line ();
  for tracks = 1 to 5 do
    let routable = ref 0 and dec = ref 0 and total_t = ref 0. in
    List.iter
      (fun seed ->
         let inst =
           Eda.Routing.random_instance ~seed ~width:5 ~height:5 ~tracks
             ~nets:15
         in
         let (result, st), dt = Util.time (fun () -> Eda.Routing.route inst) in
         total_t := !total_t +. dt;
         dec := !dec + st.T.decisions;
         match result with
         | Eda.Routing.Routed routes ->
           assert (Eda.Routing.check_routes inst routes);
           incr routable
         | Eda.Routing.Unroutable -> ()
         | Eda.Routing.Unknown _ -> ())
      seeds;
    Util.row "%-8d %6d/%-3d %12d %9.3fs@." tracks !routable (List.length seeds)
      !dec !total_t
  done;
  Util.row
    "expected shape: unroutable at 1-2 tracks, crossover to fully \
     routable as the channel widens — the UNSAT->SAT boundary the cited \
     work explores.@."

(* E14 — covering and prime implicants. *)
let e14 () =
  Util.header "E14  Covering problems and minimum-size prime implicants"
    "paper: Sec. 3 (covering [9, 23], prime implicants [22])";
  Util.row "%-14s %8s %8s %8s %14s %9s@." "instance" "greedy" "sat-opt"
    "pb-opt" "b&b (nodes)" "time";
  Util.line ();
  List.iter
    (fun seed ->
       let inst =
         Eda.Covering.random_instance ~seed ~nelems:40 ~nsets:18 ~density:0.18
       in
       let g = Eda.Covering.greedy inst in
       let (opt, pb, bnb), dt =
         Util.time (fun () ->
             let opt = Eda.Covering.sat_optimal inst in
             let pb =
               Eda.Pseudo_boolean.solve (Eda.Pseudo_boolean.covering_problem inst)
             in
             let bnb = Eda.Covering.branch_and_bound inst in
             (opt, pb, bnb))
       in
       let opt_cost =
         match opt with
         | Some sol -> Eda.Covering.cover_cost inst sol
         | None -> -1
       in
       let pb_cost =
         match pb with Eda.Pseudo_boolean.Optimal (_, v), _ -> v | _ -> -1
       in
       let bnb_label =
         match bnb with
         | Some (sol, nodes) ->
           Printf.sprintf "%d (%dn)" (Eda.Covering.cover_cost inst sol) nodes
         | None -> "budget"
       in
       Util.row "%-14s %8d %8d %8d %14s %8.3fs@."
         (Printf.sprintf "cover s%d" seed)
         (Eda.Covering.cover_cost inst g)
         opt_cost pb_cost bnb_label dt)
    [ 1; 2; 3; 4; 5 ];
  Util.row "@.%-20s %10s %12s@." "function" "vars" "min implicant";
  Util.line ();
  List.iter
    (fun seed ->
       let rng = Sat.Rng.create seed in
       let f = Cnf.Formula.create ~nvars:8 () in
       for _ = 1 to 12 do
         let len = 2 + Sat.Rng.int rng 3 in
         Cnf.Formula.add_clause_l f
           (List.init len (fun _ ->
                Cnf.Lit.of_var (Sat.Rng.int rng 8) (Sat.Rng.bool rng)))
       done;
       match Eda.Prime.minimum_prime_implicant f with
       | Some term ->
         Util.row "%-20s %10d %12d@."
           (Printf.sprintf "rand cnf s%d" seed)
           (Cnf.Formula.nvars f) (List.length term)
       | None ->
         Util.row "%-20s %10d %12s@."
           (Printf.sprintf "rand cnf s%d" seed)
           (Cnf.Formula.nvars f) "unsat")
    [ 11; 12; 13; 14 ];
  Util.row
    "expected shape: SAT and PB optima agree and never exceed greedy.@."

(* E15 — local search vs backtrack search. *)
let e15 () =
  Util.header "E15  Local search vs saturation vs backtrack search"
    "paper: Sec. 4 (the four approaches; only backtrack search proves \
     unsatisfiability at scale)";
  Util.row "%-24s %-8s %-14s %-16s %-12s@." "instance" "kind" "walksat"
    "saturation(d2)" "cdcl";
  Util.line ();
  let run_both name kind f =
    let ws, wt =
      Util.time (fun () ->
          Sat.Local_search.solve
            ~config:{ Sat.Local_search.default with
                      Sat.Local_search.max_flips = 200_000; max_tries = 3 }
            f)
    in
    let st, stt =
      Util.time (fun () -> Sat.Stalmarck.saturate ~depth:2 f)
    in
    let cd, ct =
      Util.time (fun () -> Sat.Cdcl.solve (Sat.Cdcl.create f))
    in
    let st_label =
      match st with
      | Sat.Stalmarck.Refuted d -> Printf.sprintf "UNSAT(d%d)" d
      | Sat.Stalmarck.Saturated _ -> "saturated"
    in
    Util.row "%-24s %-8s %-14s %-16s %-12s@." name kind
      (Printf.sprintf "%s %5.2fs" (Util.outcome_label ws.Sat.Local_search.outcome) wt)
      (Printf.sprintf "%s %5.2fs" st_label stt)
      (Printf.sprintf "%s %5.2fs" (Util.outcome_label cd) ct)
  in
  List.iter
    (fun seed ->
       run_both
         (Printf.sprintf "rand3sat n=150 s%d" seed)
         "random"
         (Util.random_3sat ~seed ~nvars:150 ~ratio:4.0))
    [ 21; 22; 23 ];
  run_both "php(8,7)" "unsat" (Util.pigeonhole 8 7);
  run_both "cec miter" "unsat"
    (fst
       (Circuit.Miter.to_cnf
          (Circuit.Generators.multiplier ~bits:3)
          (Circuit.Transform.rewrite_xor (Circuit.Generators.multiplier ~bits:3))));
  Util.row
    "expected shape: WalkSAT competitive on satisfiable random formulas \
     but answers '>budget' on every unsatisfiable instance; depth-2 \
     saturation refutes the structured CEC miter without search yet \
     saturates inconclusively on the pigeonhole family — only backtrack \
     search handles everything (the paper's Sec. 4 conclusion).@."

(* E16 — pseudo-Boolean optimization. *)
let e16 () =
  Util.header "E16  Linear pseudo-Boolean optimization"
    "paper: Sec. 3 (Barth [3])";
  Util.row "%-18s %8s %10s %10s %12s %9s@." "instance" "sets" "greedy"
    "optimum" "improvements" "time";
  Util.line ();
  List.iter
    (fun seed ->
       let inst =
         Eda.Covering.random_instance ~seed ~nelems:30 ~nsets:15 ~density:0.2
       in
       (* weighted costs 1..4 *)
       let rng = Sat.Rng.create (seed * 13) in
       let inst =
         { inst with Eda.Covering.cost =
             Array.map (fun _ -> 1 + Sat.Rng.int rng 4) inst.Eda.Covering.cost }
       in
       let g = Eda.Covering.greedy inst in
       let (result, st), dt =
         Util.time (fun () ->
             Eda.Pseudo_boolean.solve (Eda.Pseudo_boolean.covering_problem inst))
       in
       match result with
       | Eda.Pseudo_boolean.Optimal (_, v) ->
         Util.row "%-18s %8d %10d %10d %12d %8.3fs@."
           (Printf.sprintf "wcover s%d" seed)
           (Array.length inst.Eda.Covering.sets)
           (Eda.Covering.cover_cost inst g)
           v st.Eda.Pseudo_boolean.improvements dt
       | _ -> Util.row "%-18s failed@." (Printf.sprintf "wcover s%d" seed))
    [ 31; 32; 33; 34; 35 ];
  Util.row
    "expected shape: the optimum never exceeds greedy; the descent \
     improves in a handful of steps (Barth's linear search).@."

(* E17 — clause deletion policy ablation. *)
let e17 () =
  Util.header "E17  Learned-clause deletion policies"
    "paper: Sec. 4.1 property 3 (relevance-based learning)";
  let instances =
    [
      ("php(8,7)", Util.pigeonhole 8 7);
      ("rand3sat n=100 unsat", Util.random_3sat ~seed:77 ~nvars:100 ~ratio:5.0);
    ]
  in
  let policies =
    [
      ("no deletion", T.No_deletion);
      ("size-bounded 8", T.Size_bounded 8);
      ("relevance (8,4)", T.Relevance (8, 4));
      ("lbd-bounded 4", T.Lbd_bounded 4);
      ("activity halving", T.Activity_halving);
    ]
  in
  Util.row "%-22s %-18s %8s %9s %9s %9s %8s@." "instance" "policy" "result"
    "learned" "deleted" "conflicts" "time";
  Util.line ();
  List.iter
    (fun (iname, f) ->
       List.iter
         (fun (pname, deletion) ->
            let cfg = { T.default with T.deletion } in
            let s = Sat.Cdcl.create ~config:cfg f in
            let o, dt = Util.time (fun () -> Sat.Cdcl.solve s) in
            let st = Sat.Cdcl.stats s in
            Util.row "%-22s %-18s %8s %9d %9d %9d %7.3fs@." iname pname
              (Util.outcome_label o) st.T.learned st.T.deleted st.T.conflicts dt)
         policies;
       Util.line ())
    instances;
  Util.row
    "expected shape: deletion trades memory (learned - deleted kept) \
     against conflicts; relevance-based deletion keeps the clause \
     database small without losing completeness.@."

(* E18 — path delay fault testing, incremental. *)
let e18 () =
  Util.header "E18  Robust path-delay-fault tests, incremental vs scratch"
    "paper: Sec. 3 [7], Sec. 6 [18]";
  Util.row "%-16s %-14s %7s %9s %11s %10s %9s@." "circuit" "mode" "paths"
    "testable" "untestable" "conflicts" "time";
  Util.line ();
  List.iter
    (fun (name, c, limit) ->
       let paths = Eda.Path_delay.enumerate_paths c ~limit in
       List.iter
         (fun (mode, incremental) ->
            let s, dt =
              Util.time (fun () ->
                  Eda.Path_delay.test_paths ~incremental c paths)
            in
            Util.row "%-16s %-14s %7d %9d %11d %10d %8.3fs@." name mode
              s.Eda.Path_delay.paths s.Eda.Path_delay.testable
              s.Eda.Path_delay.untestable s.Eda.Path_delay.conflicts dt)
         [ ("incremental", true); ("scratch", false) ];
       Util.line ())
    [
      ("ripple5", Circuit.Generators.ripple_adder ~bits:5, 30);
      ("carryskip6/b3", Circuit.Generators.carry_skip_adder ~bits:6 ~block:3, 40);
    ];
  Util.row
    "expected shape: identical verdicts; the incremental encoding \
     amortises the two-copy circuit CNF across the path list (the [18] \
     claim).  Carry-skip circuits have robust-untestable paths.@."

(* E19 — crosstalk noise analysis. *)
let e19 () =
  Util.header "E19  Crosstalk noise: opposite-switching alignment queries"
    "paper: Sec. 3 (crosstalk [8])";
  let c = Circuit.Generators.carry_skip_adder ~bits:4 ~block:2 in
  let pairs = Eda.Crosstalk.coupled_pairs c ~max_level_gap:0 in
  Util.row "circuit: %a; %d same-level coupling candidates@."
    Circuit.Netlist.pp_stats c (List.length pairs);
  List.iter
    (fun (lo, hi) ->
       (* only nets still switching inside the window are candidates:
          pick pairs whose level falls in it, as a layout filter would *)
       let relevant =
         List.filter
           (fun (a, _) ->
              let lvl = Circuit.Netlist.level c a in
              lvl >= lo && lvl <= hi + 1)
           pairs
       in
       let examined = ref 0 and noisy = ref 0 in
       let _, dt =
         Util.time (fun () ->
             List.iter
               (fun (a, b) ->
                  if !examined < 25 then begin
                    incr examined;
                    match
                      Eda.Crosstalk.analyze c
                        { Eda.Crosstalk.victim = a; aggressor = b;
                          window = (lo, hi) }
                    with
                    | Eda.Crosstalk.Noise _ -> incr noisy
                    | Eda.Crosstalk.Safe -> ()
                    | Eda.Crosstalk.Unknown _ -> ()
                  end)
               relevant)
       in
       Util.row "window [%d,%d]: %d of %d level-matched pairs can switch \
                 oppositely (%.3fs)@."
         lo hi !noisy !examined dt)
    [ (0, 2); (2, 5); (5, 9); (9, 12) ];
  Util.row
    "expected shape: wide early windows flag many pairs; late windows \
     only deep nets — the alignment pruning the cited analysis needs.@."

(* E20 — functional vector generation. *)
let e20 () =
  Util.header "E20  Functional test vector generation"
    "paper: Sec. 3 (functional vectors [13])";
  Util.row "%-14s %11s %8s %12s %9s %9s %8s@." "circuit" "objectives"
    "covered" "unreachable" "vectors" "sat calls" "time";
  Util.line ();
  List.iter
    (fun (name, c, warmup) ->
       let objs = Eda.Fvg.toggle_objectives c in
       let r = Eda.Fvg.generate ~random_warmup:warmup c objs in
       Util.row "%-14s %11d %8d %12d %9d %9d %7.3fs@."
         (Printf.sprintf "%s w%d" name warmup)
         r.Eda.Fvg.objectives r.Eda.Fvg.covered r.Eda.Fvg.unreachable
         (List.length r.Eda.Fvg.vectors) r.Eda.Fvg.sat_calls
         r.Eda.Fvg.time_seconds)
    [
      ("alu3", Circuit.Generators.alu ~bits:3, 0);
      ("alu3", Circuit.Generators.alu ~bits:3, 2);
      ("comparator5", Circuit.Generators.comparator ~bits:5, 0);
      ("comparator5", Circuit.Generators.comparator ~bits:5, 2);
      ("mult4", Circuit.Generators.multiplier ~bits:4, 2);
    ];
  Util.row
    "expected shape: random warmup covers the easy objectives; \
     incremental SAT mops up the rest with few calls; unreachable \
     objectives (untoggleable nets) are proven, not abandoned.@."

(* E21 — equality with uninterpreted functions (processor verification). *)
let e21 () =
  Util.header
    "E21  Equality + uninterpreted functions reduced to SAT"
    "paper: Sec. 3 (processor verification, Velev & Bryant [6])";
  let open Eda.Euf in
  let x = var "x" in
  let f t = fn "f" [ t ] in
  let iterate k t =
    let rec go acc n = if n = 0 then acc else go (f acc) (n - 1) in
    go t k
  in
  Util.row "%-34s %8s %8s %8s %10s@." "query" "valid" "consts" "eqvars"
    "conflicts";
  Util.line ();
  let show name formula =
    let r = Eda.Euf.solve (Not formula) in
    Util.row "%-34s %8b %8d %8d %10d@." name (not r.satisfiable)
      r.term_constants r.equality_vars
      r.sat_stats.Sat.Types.conflicts
  in
  show "x=y => f(x)=f(y)"
    (Imp (var "x" === var "y", f (var "x") === f (var "y")));
  List.iter
    (fun n ->
       show
         (Printf.sprintf "f^%d=x & f^%d=x => f(x)=x" n (n + 1))
         (Imp
            (And [ iterate n x === x; iterate (n + 1) x === x ],
             f x === x)))
    [ 3; 6; 9; 12 ];
  (* the forwarding-path fragment of the cited processor proofs *)
  let bypass =
    let regval = var "regval" and bus = var "bus" in
    let src = var "src" and dest = var "dest" in
    let spec = Ite (src === dest, bus, regval) in
    let impl = Ite (Not (src === dest), regval, bus) in
    fn "alu" [ spec; var "op2" ] === fn "alu" [ impl; var "op2" ]
  in
  show "bypass mux feeds identical ALU" bypass;
  Util.row
    "expected shape: validity certified through Ackermann expansion + \
     transitivity; the f^n cycle family grows the equality graph \
     (conflicts rise with n) yet stays routine for the CDCL core.@."
