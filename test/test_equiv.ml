module E = Eda.Equiv

let methods_agree_on_equivalent () =
  let base = Circuit.Generators.multiplier ~bits:2 in
  let variant =
    Circuit.Transform.demorgan ~seed:11 (Circuit.Transform.rewrite_xor base)
  in
  List.iter
    (fun (name, r) ->
       match r.E.verdict with
       | E.Equivalent -> ()
       | E.Inequivalent _ -> Alcotest.failf "%s: false inequivalence" name
       | E.Inconclusive why -> Alcotest.failf "%s inconclusive: %s" name why)
    [
      ("sat", E.check_sat base variant);
      ("bdd", E.check_bdd base variant);
      ("rl",
       E.check_sat
         ~pipeline:{ Sat.Solver.no_pipeline with recursive_learning = 1 }
         base variant);
      ("fraig", E.check_fraig base variant);
      ("sat+pipeline",
       E.check_sat ~pipeline:Sat.Solver.full_pipeline base variant);
    ]

let counterexamples_valid () =
  let base = Circuit.Generators.ripple_adder ~bits:3 in
  let seen_bug = ref false in
  for seed = 1 to 8 do
    let buggy, _ = Circuit.Transform.inject_bug ~seed base in
    let validate name = function
      | E.Inequivalent vec ->
        seen_bug := true;
        let o1 = Circuit.Simulate.eval_outputs base vec in
        let o2 = Circuit.Simulate.eval_outputs buggy vec in
        if o1 = o2 then Alcotest.failf "%s: bogus counterexample" name
      | E.Equivalent -> ()
      | E.Inconclusive why -> Alcotest.failf "%s inconclusive: %s" name why
    in
    validate "sat" (E.check_sat base buggy).E.verdict;
    validate "bdd" (E.check_bdd base buggy).E.verdict;
    (* the two methods must agree *)
    let s = (E.check_sat base buggy).E.verdict in
    let b = (E.check_bdd base buggy).E.verdict in
    (match s, b with
     | E.Equivalent, E.Equivalent -> ()
     | E.Inequivalent _, E.Inequivalent _ -> ()
     | _ -> Alcotest.fail "sat and bdd disagree")
  done;
  Alcotest.(check bool) "at least one real bug" true !seen_bug

let bdd_blowup_reported () =
  let m = Circuit.Generators.multiplier ~bits:6 in
  let m2 = Circuit.Transform.rewrite_xor m in
  match (E.check_bdd ~node_limit:2000 m m2).E.verdict with
  | E.Inconclusive _ -> ()
  | _ -> Alcotest.fail "expected node-limit blowup"

let sat_handles_what_bdd_cannot () =
  let m = Circuit.Generators.multiplier ~bits:4 in
  let m2 = Circuit.Transform.rewrite_xor m in
  match (E.check_sat m m2).E.verdict with
  | E.Equivalent -> ()
  | _ -> Alcotest.fail "sat should prove 4-bit multiplier equivalence"

let interface_mismatch_inequivalent () =
  let a = Circuit.Generators.parity ~bits:3 in
  let b = Circuit.Generators.parity ~bits:4 in
  match (E.check_bdd a b).E.verdict with
  | E.Inequivalent _ -> ()
  | _ -> Alcotest.fail "interface mismatch must be inequivalent"

let stats_populated () =
  let a = Circuit.Generators.majority3 () in
  let r = E.check_sat a (Circuit.Netlist.copy a) in
  Alcotest.(check bool) "sat stats" true (r.E.sat_stats <> None);
  let rb = E.check_bdd a (Circuit.Netlist.copy a) in
  Alcotest.(check bool) "bdd nodes" true (rb.E.bdd_nodes > 0)

let aig_method () =
  (* identical copies collapse in the merged AIG: no SAT call, so no
     conflict *)
  let c = Circuit.Generators.ripple_adder ~bits:4 in
  let r = Eda.Sweep.check c (Circuit.Netlist.copy c) in
  Alcotest.(check bool) "copy equivalent" true (r.Eda.Sweep.verdict = E.Equivalent);
  Alcotest.(check int) "no solver needed" 0 r.Eda.Sweep.stats.Eda.Sweep.sat_calls;
  (* counterexamples valid *)
  let buggy, _ = Circuit.Transform.inject_bug ~seed:4 c in
  (match (E.check_fraig c buggy).E.verdict with
   | E.Inequivalent vec ->
     Alcotest.(check bool) "aig cex valid" true
       (Circuit.Simulate.eval_outputs c vec
        <> Circuit.Simulate.eval_outputs buggy vec)
   | E.Equivalent -> ()
   | E.Inconclusive why -> Alcotest.failf "aig: %s" why);
  (* agrees with the plain miter on random pairs *)
  for seed = 1 to 8 do
    let a = Circuit.Generators.random_circuit ~inputs:6 ~gates:25 ~seed:(seed + 600) in
    let b =
      if seed mod 2 = 0 then Circuit.Transform.demorgan ~seed a
      else fst (Circuit.Transform.inject_bug ~seed a)
    in
    let va = (E.check_fraig a b).E.verdict in
    let vs = (E.check_sat a b).E.verdict in
    match va, vs with
    | E.Equivalent, E.Equivalent -> ()
    | E.Inequivalent _, E.Inequivalent _ -> ()
    | _ -> Alcotest.fail "aig and miter disagree"
  done

let suite =
  [
    Th.case "aig method" aig_method;
    Th.case "methods agree on equivalent" methods_agree_on_equivalent;
    Th.case "counterexamples valid" counterexamples_valid;
    Th.case "bdd blowup" bdd_blowup_reported;
    Th.case "sat scales past bdd" sat_handles_what_bdd_cannot;
    Th.case "interface mismatch" interface_mismatch_inequivalent;
    Th.case "stats" stats_populated;
  ]
