(* Cross-module property battery: randomized end-to-end invariants tying
   the substrates together. *)

let seed_gen = QCheck.(int_bound 1_000_000)

let random_pair seed =
  let c1 =
    Circuit.Generators.random_circuit ~inputs:6 ~gates:30 ~seed:(seed + 1)
  in
  let c2 =
    if seed mod 3 = 0 then fst (Circuit.Transform.inject_bug ~seed c1)
    else if seed mod 3 = 1 then Circuit.Transform.demorgan ~seed c1
    else Circuit.Transform.rewrite_xor c1
  in
  (c1, c2)

let prop_cec_methods_agree =
  QCheck.Test.make ~name:"all CEC methods return the same verdict" ~count:40
    seed_gen
    (fun seed ->
       let c1, c2 = random_pair seed in
       let norm (v : Eda.Equiv.verdict) =
         match v with
         | Eda.Equiv.Equivalent -> true
         | Eda.Equiv.Inequivalent _ -> false
         | Eda.Equiv.Inconclusive _ -> QCheck.assume_fail ()
       in
       let miter = norm (Eda.Equiv.check_sat c1 c2).Eda.Equiv.verdict in
       let bdd = norm (Eda.Equiv.check_bdd c1 c2).Eda.Equiv.verdict in
       let sweep = norm (Eda.Sweep.check c1 c2).Eda.Sweep.verdict in
       miter = bdd && miter = sweep)

let prop_atpg_vectors_detect =
  QCheck.Test.make ~name:"every generated test vector detects its fault"
    ~count:25 seed_gen
    (fun seed ->
       let c =
         Circuit.Generators.random_circuit ~inputs:6 ~gates:20 ~seed:(seed + 7)
       in
       let ok = ref true in
       List.iteri
         (fun i fault ->
            if i < 10 then
              match Eda.Atpg.generate_test c fault with
              | Eda.Atpg.Test v, _ ->
                if Eda.Atpg.fault_simulate c [ fault ] [ v ] = [] then
                  ok := false
              | (Eda.Atpg.Redundant | Eda.Atpg.Aborted _), _ -> ())
         (Eda.Atpg.fault_list c);
       !ok)

let prop_true_delay_bounded =
  QCheck.Test.make ~name:"true delay within [0, weighted topological]"
    ~count:20 seed_gen
    (fun seed ->
       let c =
         Circuit.Generators.random_circuit ~inputs:5 ~gates:18 ~seed:(seed + 13)
       in
       let gate_delay = function
         | Circuit.Gate.Xor | Circuit.Gate.Xnor -> 2
         | _ -> 1
       in
       List.for_all
         (fun (_, o) ->
            let tru, _ = Eda.Delay.true_delay ~gate_delay c o in
            tru >= 0 && tru <= Eda.Delay.weighted_level ~gate_delay c o)
         (Circuit.Netlist.outputs c))

let prop_aig_netlist_semantics =
  QCheck.Test.make ~name:"AIG conversion preserves circuit semantics"
    ~count:30 seed_gen
    (fun seed ->
       let c =
         Circuit.Generators.random_circuit ~inputs:6 ~gates:25 ~seed:(seed + 19)
       in
       let m, outs = Aig.of_netlist c in
       let rng = Sat.Rng.create (seed + 23) in
       let ok = ref true in
       for _ = 1 to 10 do
         let ins = Array.init 6 (fun _ -> Sat.Rng.bool rng) in
         let sim = Circuit.Simulate.eval_outputs c ins in
         List.iteri
           (fun i (_, e) -> if Aig.eval m ins e <> sim.(i) then ok := false)
           outs
       done;
       !ok)

let prop_transforms_preserve_function =
  QCheck.Test.make ~name:"strash/simplify compose and preserve the function"
    ~count:25 seed_gen
    (fun seed ->
       let c =
         Circuit.Generators.random_circuit ~inputs:6 ~gates:30 ~seed:(seed + 29)
       in
       let variants =
         [
           Circuit.Transform.strash c;
           Circuit.Transform.simplify (Circuit.Transform.strash c);
           Circuit.Transform.strash
             (Circuit.Transform.demorgan ~seed (Circuit.Transform.rewrite_xor c));
         ]
       in
       List.for_all
         (fun v ->
            let f, _ = Circuit.Miter.to_cnf c v in
            match Sat.Cdcl.solve (Sat.Cdcl.create f) with
            | Sat.Types.Unsat -> true
            | _ -> false)
         variants)

let prop_proofs_certify_circuit_unsat =
  QCheck.Test.make ~name:"equivalence proofs certify via RUP" ~count:15
    seed_gen
    (fun seed ->
       let c =
         Circuit.Generators.random_circuit ~inputs:6 ~gates:25 ~seed:(seed + 37)
       in
       let f, _ = Circuit.Miter.to_cnf c (Circuit.Transform.demorgan ~seed c) in
       match Sat.Proof.solve_certified f with
       | Sat.Types.Unsat, Sat.Proof.Valid_refutation -> true
       | Sat.Types.Unsat, _ -> false
       | _ -> false)

let prop_saturation_agrees_with_cdcl =
  QCheck.Test.make ~name:"saturation refutations are confirmed by CDCL"
    ~count:40 seed_gen
    (fun seed ->
       let rng = Sat.Rng.create (seed + 41) in
       let f = Th.random_cnf rng 8 28 3 in
       match Sat.Stalmarck.saturate ~depth:2 f with
       | Sat.Stalmarck.Refuted _ ->
         not (Th.outcome_sat (Th.solve_cdcl f))
       | Sat.Stalmarck.Saturated _ -> true)

let prop_seq_equiv_sound =
  QCheck.Test.make ~name:"sequential equivalence never lies" ~count:15
    seed_gen
    (fun seed ->
       (* mutate a counter's combinational core; compare against the
          original with the product-machine checker, then validate the
          verdict by simulation *)
       let good = Circuit.Sequential.counter ~bits:3 ~buggy_at:None in
       let mutated =
         { good with
           Circuit.Sequential.comb =
             fst (Circuit.Transform.inject_bug ~seed good.Circuit.Sequential.comb) }
       in
       let rng = Sat.Rng.create (seed + 43) in
       match Eda.Seq_equiv.check ~bound:20 good mutated with
       | Eda.Seq_equiv.Different frames ->
         (* the trace is a genuine witness *)
         Circuit.Sequential.simulate good ~inputs:frames
         <> Circuit.Sequential.simulate mutated ~inputs:frames
       | Eda.Seq_equiv.Equivalent _ | Eda.Seq_equiv.Bounded_equivalent _ ->
         (* claimed equal: random traces must agree *)
         let ok = ref true in
         for _ = 1 to 10 do
           let inputs =
             List.init 12 (fun _ -> [| Sat.Rng.bool rng |])
           in
           if
             Circuit.Sequential.simulate good ~inputs
             <> Circuit.Sequential.simulate mutated ~inputs
           then ok := false
         done;
         !ok)

let prop_bench_roundtrip_random =
  QCheck.Test.make ~name:"BENCH roundtrip on random circuits" ~count:30
    seed_gen
    (fun seed ->
       let c =
         Circuit.Generators.random_circuit ~inputs:5 ~gates:20 ~seed:(seed + 53)
       in
       let c2 =
         Circuit.Bench_format.parse_string (Circuit.Bench_format.to_string c)
       in
       let f, _ = Circuit.Miter.to_cnf c c2 in
       match Sat.Cdcl.solve (Sat.Cdcl.create f) with
       | Sat.Types.Unsat -> true
       | _ -> false)

let suite =
  [
    Th.qcheck prop_seq_equiv_sound;
    Th.qcheck prop_bench_roundtrip_random;
    Th.qcheck prop_cec_methods_agree;
    Th.qcheck prop_atpg_vectors_detect;
    Th.qcheck prop_true_delay_bounded;
    Th.qcheck prop_aig_netlist_semantics;
    Th.qcheck prop_transforms_preserve_function;
    Th.qcheck prop_proofs_certify_circuit_unsat;
    Th.qcheck prop_saturation_agrees_with_cdcl;
  ]
