module S = Eda.Sweep

let equivalent_pairs_proven () =
  List.iter
    (fun (name, c1, c2) ->
       match (S.check c1 c2).S.verdict with
       | Eda.Equiv.Equivalent -> ()
       | Eda.Equiv.Inequivalent _ -> Alcotest.failf "%s: false negative" name
       | Eda.Equiv.Inconclusive why -> Alcotest.failf "%s: %s" name why)
    [
      ("mult3", Circuit.Generators.multiplier ~bits:3,
       Circuit.Transform.rewrite_xor (Circuit.Generators.multiplier ~bits:3));
      ("adder", Circuit.Generators.ripple_adder ~bits:4,
       Circuit.Transform.demorgan ~seed:2 (Circuit.Generators.ripple_adder ~bits:4));
      ("parity", Circuit.Generators.parity ~bits:6,
       Circuit.Transform.double_invert ~seed:3 (Circuit.Generators.parity ~bits:6));
      ("self", Circuit.Generators.alu ~bits:2,
       Circuit.Netlist.copy (Circuit.Generators.alu ~bits:2));
      ("mult vs wallace", Circuit.Generators.multiplier ~bits:4,
       Circuit.Generators.wallace_multiplier ~bits:4);
      ("ripple vs kogge", Circuit.Generators.ripple_adder ~bits:8,
       Circuit.Generators.kogge_stone_adder ~bits:8);
    ]

let counterexamples_valid () =
  let base = Circuit.Generators.ripple_adder ~bits:3 in
  let found = ref 0 in
  for seed = 1 to 8 do
    let buggy, _ = Circuit.Transform.inject_bug ~seed base in
    match (S.check base buggy).S.verdict with
    | Eda.Equiv.Inequivalent vec ->
      incr found;
      let o1 = Circuit.Simulate.eval_outputs base vec in
      let o2 = Circuit.Simulate.eval_outputs buggy vec in
      Alcotest.(check bool) "cex distinguishes" true (o1 <> o2)
    | Eda.Equiv.Equivalent -> () (* benign mutation *)
    | Eda.Equiv.Inconclusive why -> Alcotest.failf "inconclusive: %s" why
  done;
  Alcotest.(check bool) "bugs found" true (!found > 0)

let agrees_with_miter () =
  let rng = Sat.Rng.create 111 in
  for seed = 1 to 12 do
    let c1 = Circuit.Generators.random_circuit ~inputs:6 ~gates:30 ~seed:(seed + 300) in
    let c2 =
      if Sat.Rng.bool rng then Circuit.Transform.demorgan ~seed c1
      else fst (Circuit.Transform.inject_bug ~seed c1)
    in
    let sweep = (S.check c1 c2).S.verdict in
    let miter = (Eda.Equiv.check_sat c1 c2).Eda.Equiv.verdict in
    match sweep, miter with
    | Eda.Equiv.Equivalent, Eda.Equiv.Equivalent -> ()
    | Eda.Equiv.Inequivalent _, Eda.Equiv.Inequivalent _ -> ()
    | _ -> Alcotest.failf "sweep and miter disagree on seed %d" seed
  done

let internal_equivalences_found () =
  let c = Circuit.Generators.multiplier ~bits:3 in
  let c2 = Circuit.Transform.rewrite_xor c in
  let r = S.check c c2 in
  Alcotest.(check bool) "candidates seen" true (r.S.stats.S.candidates > 0);
  Alcotest.(check bool) "pairs merged" true (r.S.stats.S.merges > 0);
  Alcotest.(check bool) "simulation ran" true (r.S.stats.S.simulation_words > 0);
  Alcotest.(check bool) "miter shrank" true
    (r.S.stats.S.fraig_nodes < r.S.stats.S.aig_nodes)

let refinement_on_counterexamples () =
  (* random circuits vs their mutants force refinement *)
  let c = Circuit.Generators.random_circuit ~inputs:6 ~gates:40 ~seed:7 in
  let c2, _ = Circuit.Transform.inject_bug ~seed:5 c in
  let r = S.check ~words:1 c c2 in
  (* with a single seed word, some candidates are spurious and must be
     refuted (statistically certain on 40-gate circuits) *)
  Alcotest.(check bool) "some activity" true
    (r.S.stats.S.merges + r.S.stats.S.refuted > 0);
  Alcotest.(check bool) "refutations resimulate" true
    (r.S.stats.S.refuted = 0
     || r.S.stats.S.refinement_rounds > 0)

let phase_times_cover_total () =
  let c = Circuit.Generators.multiplier ~bits:4 in
  let c2 = Circuit.Transform.rewrite_xor c in
  let r = S.check c c2 in
  let t = r.S.times in
  Alcotest.(check bool) "non-negative" true
    (t.S.simulate_s >= 0. && t.S.refine_s >= 0. && t.S.prove_s >= 0.);
  Alcotest.(check bool) "phases within total" true
    (t.S.simulate_s +. t.S.refine_s +. t.S.prove_s <= t.S.total_s +. 0.05)

let budget_skips_not_fatal () =
  (* a 1-conflict budget per candidate forces skips on a multiplier, but
     the verdict must still be derived (final queries are unbudgeted) *)
  let c = Circuit.Generators.multiplier ~bits:4 in
  let c2 = Circuit.Transform.rewrite_xor c in
  let r = S.check ~candidate_conflicts:1 c c2 in
  match r.S.verdict with
  | Eda.Equiv.Equivalent -> ()
  | Eda.Equiv.Inequivalent _ -> Alcotest.fail "false negative under budget"
  | Eda.Equiv.Inconclusive why -> Alcotest.failf "inconclusive: %s" why

let metrics_populated () =
  let m = Sat.Metrics.create () in
  let c = Circuit.Generators.multiplier ~bits:3 in
  let c2 = Circuit.Transform.rewrite_xor c in
  let r = S.check ~metrics:m c c2 in
  Alcotest.(check int) "sweep/merges counter"
    r.S.stats.S.merges
    (Sat.Metrics.counter_value (Sat.Metrics.counter m "sweep/merges"));
  Alcotest.(check int) "sweep/sat_calls counter"
    r.S.stats.S.sat_calls
    (Sat.Metrics.counter_value (Sat.Metrics.counter m "sweep/sat_calls"))

let interface_mismatch () =
  let a = Circuit.Generators.parity ~bits:3 in
  let b = Circuit.Generators.parity ~bits:4 in
  match (S.check a b).S.verdict with
  | Eda.Equiv.Inequivalent _ -> ()
  | _ -> Alcotest.fail "interface mismatch"

(* the satellite property: fraig vs BDD vs monolithic miter on 300+
   random pairs, equivalent and mutated, with counterexamples validated
   by simulation *)
let engines_agree_on_random_pairs () =
  let rng = Sat.Rng.create 4242 in
  let checked = ref 0 in
  for seed = 1 to 150 do
    let inputs = 4 + Sat.Rng.int rng 4 in
    let gates = 15 + Sat.Rng.int rng 30 in
    let c1 =
      Circuit.Generators.random_circuit ~inputs ~gates ~seed:(seed * 17)
    in
    let variants =
      [
        Circuit.Transform.demorgan ~seed c1;
        (* a mutant; occasionally functionally benign *)
        fst (Circuit.Transform.inject_bug ~seed c1);
      ]
    in
    List.iter
      (fun c2 ->
         incr checked;
         let f = Eda.Equiv.check_fraig ~seed c1 c2 in
         let b = Eda.Equiv.check_bdd c1 c2 in
         let s = Eda.Equiv.check_sat c1 c2 in
         let tag = function
           | Eda.Equiv.Equivalent -> "eq"
           | Eda.Equiv.Inequivalent _ -> "neq"
           | Eda.Equiv.Inconclusive _ -> "?"
         in
         let tf = tag f.Eda.Equiv.verdict
         and tb = tag b.Eda.Equiv.verdict
         and ts = tag s.Eda.Equiv.verdict in
         if tf <> tb || tf <> ts then
           Alcotest.failf
             "seed %d: fraig=%s bdd=%s mono=%s" seed tf tb ts;
         match f.Eda.Equiv.verdict with
         | Eda.Equiv.Inequivalent vec ->
           let o1 = Circuit.Simulate.eval_outputs c1 vec in
           let o2 = Circuit.Simulate.eval_outputs c2 vec in
           if o1 = o2 then
             Alcotest.failf "seed %d: fraig cex does not distinguish" seed
         | _ -> ())
      variants
  done;
  Alcotest.(check bool) "300+ pairs" true (!checked >= 300)

(* ripple vs kogge-stone at 64 bits refutes more candidates than one
   word holds, so counterexamples must spill into further packed words
   (one word per [word_width] counterexamples, never one per
   counterexample) *)
let packed_counterexamples_spill () =
  let ripple = Circuit.Generators.ripple_adder ~bits:64 in
  let kogge = Circuit.Generators.kogge_stone_adder ~bits:64 in
  let words = 4 and width = Circuit.Simulate.word_width in
  let r = S.check ~words ~seed:5 ripple kogge in
  (match r.S.verdict with
   | Eda.Equiv.Equivalent -> ()
   | Eda.Equiv.Inequivalent _ -> Alcotest.fail "false negative"
   | Eda.Equiv.Inconclusive why -> Alcotest.failf "inconclusive: %s" why);
  let st = r.S.stats in
  Alcotest.(check bool) "more rounds than one word holds" true
    (st.S.refinement_rounds > width);
  Alcotest.(check bool) "one word per word_width counterexamples" true
    (st.S.simulation_words
     <= words + ((st.S.refinement_rounds + width - 1) / width));
  Alcotest.(check bool) "same seed, same stats" true
    ((S.check ~words ~seed:5 ripple kogge).S.stats = st);
  for seed = 1 to 4 do
    let buggy, _ = Circuit.Transform.inject_bug ~seed kogge in
    let sweep = (S.check ~words ~seed ripple buggy).S.verdict in
    let miter = (Eda.Equiv.check_sat ripple buggy).Eda.Equiv.verdict in
    match sweep, miter with
    | Eda.Equiv.Inequivalent vec, Eda.Equiv.Inequivalent _ ->
      Alcotest.(check bool) "cex distinguishes" true
        (Circuit.Simulate.eval_outputs ripple vec
         <> Circuit.Simulate.eval_outputs buggy vec)
    | Eda.Equiv.Equivalent, Eda.Equiv.Equivalent -> ()
    | _ -> Alcotest.failf "sweep and miter disagree on mutant %d" seed
  done

(* with a one-conflict budget the final output queries give up, so
   residual pairs escalate to cube-and-conquer on a standalone cone CNF
   over the primary inputs; its verdicts and counterexamples must agree
   with the monolithic miter *)
let cube_fallback () =
  let metrics = Sat.Metrics.create () in
  let mult = Circuit.Generators.multiplier ~bits:4 in
  let wallace = Circuit.Generators.wallace_multiplier ~bits:4 in
  List.iter
    (fun (name, c2) ->
       let r = S.check ~jobs:2 ~candidate_conflicts:1 ~metrics mult c2 in
       let miter = (Eda.Equiv.check_sat mult c2).Eda.Equiv.verdict in
       match r.S.verdict, miter with
       | Eda.Equiv.Equivalent, Eda.Equiv.Equivalent -> ()
       | Eda.Equiv.Inequivalent vec, Eda.Equiv.Inequivalent _ ->
         Alcotest.(check bool) (name ^ ": cex distinguishes") true
           (Circuit.Simulate.eval_outputs mult vec
            <> Circuit.Simulate.eval_outputs c2 vec)
       | _ -> Alcotest.failf "%s: sweep and miter disagree" name)
    [
      ("wallace", wallace);
      ("mutant 1", fst (Circuit.Transform.inject_bug ~seed:1 wallace));
      ("mutant 2", fst (Circuit.Transform.inject_bug ~seed:2 wallace));
    ];
  Alcotest.(check bool) "cube fallback taken" true
    (Sat.Metrics.counter_value
       (Sat.Metrics.counter metrics "sweep/cube_fallbacks")
     > 0)

let suite =
  [
    Th.case "equivalent pairs" equivalent_pairs_proven;
    Th.case "counterexamples" counterexamples_valid;
    Th.case "agrees with miter" agrees_with_miter;
    Th.case "internal equivalences" internal_equivalences_found;
    Th.case "refinement" refinement_on_counterexamples;
    Th.case "phase times" phase_times_cover_total;
    Th.case "budget skips" budget_skips_not_fatal;
    Th.case "metrics" metrics_populated;
    Th.case "interface mismatch" interface_mismatch;
    Th.case "engines agree x300" engines_agree_on_random_pairs;
    Th.case "packed counterexamples spill" packed_counterexamples_spill;
    Th.case "cube fallback" cube_fallback;
  ]
