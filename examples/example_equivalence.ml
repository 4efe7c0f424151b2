(* Combinational equivalence checking: SAT vs BDD (Sec. 1 and 3).

   Verifies a multiplier against a restructured implementation, then
   hunts an injected bug; shows where BDDs blow up while SAT keeps
   going.

   Run with: dune exec examples/example_equivalence.exe *)

let describe name (r : Eda.Equiv.report) =
  match r.Eda.Equiv.verdict with
  | Eda.Equiv.Equivalent ->
    Format.printf "%-22s EQUIVALENT     (%.3fs, bdd nodes %d)@." name
      r.Eda.Equiv.time_seconds r.Eda.Equiv.bdd_nodes
  | Eda.Equiv.Inequivalent v ->
    let bits =
      String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')
    in
    Format.printf "%-22s DIFFER at input [%s] (%.3fs)@." name bits
      r.Eda.Equiv.time_seconds
  | Eda.Equiv.Inconclusive why ->
    Format.printf "%-22s INCONCLUSIVE: %s@." name why

let () =
  let bits = 4 in
  let golden = Circuit.Generators.multiplier ~bits in
  let revised =
    Circuit.Transform.demorgan ~seed:3
      (Circuit.Transform.rewrite_xor golden)
  in
  Format.printf "golden:  %a@." Circuit.Netlist.pp_stats golden;
  Format.printf "revised: %a@.@." Circuit.Netlist.pp_stats revised;

  describe "sat miter" (Eda.Equiv.check_sat golden revised);
  describe "sat + preprocessing"
    (Eda.Equiv.check_sat ~pipeline:Sat.Solver.full_pipeline golden revised);
  describe "sat + rec. learning"
    (Eda.Equiv.check_sat
       ~pipeline:{ Sat.Solver.no_pipeline with recursive_learning = 1 }
       golden revised);
  describe "bdd" (Eda.Equiv.check_bdd golden revised);
  (let r = Eda.Sweep.check golden revised in
   Format.printf "%-22s %s (%.3fs, %d internal equivalences proven)@."
     "sat sweeping"
     (match r.Eda.Sweep.verdict with
      | Eda.Equiv.Equivalent -> "EQUIVALENT"
      | Eda.Equiv.Inequivalent _ -> "DIFFER"
      | Eda.Equiv.Inconclusive _ -> "INCONCLUSIVE")
     r.Eda.Sweep.times.Eda.Sweep.total_s r.Eda.Sweep.stats.Eda.Sweep.merges);

  Format.printf "@.-- with an injected bug --@.";
  let buggy, what = Circuit.Transform.inject_bug ~seed:13 revised in
  Format.printf "mutation: %s@." what;
  describe "sat miter" (Eda.Equiv.check_sat golden buggy);
  describe "bdd" (Eda.Equiv.check_bdd golden buggy);

  Format.printf "@.-- scaling: BDD node limit vs SAT --@.";
  let big = Circuit.Generators.multiplier ~bits:6 in
  let big2 = Circuit.Transform.rewrite_xor big in
  describe "bdd (100k nodes)" (Eda.Equiv.check_bdd ~node_limit:100_000 big big2);
  describe "sat miter" (Eda.Equiv.check_sat big big2)
