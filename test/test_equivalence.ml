module E = Sat.Equivalence

let detect_pair () =
  (* (1 -2)(-1 2) makes x1 = x2 *)
  match E.detect (Th.formula_of [ [ 1; -2 ]; [ -1; 2 ]; [ 2; 3 ] ]) with
  | E.Reduced r ->
    Alcotest.(check int) "one merged" 1 r.E.merged;
    (* x2 must no longer occur *)
    let occurs = ref false in
    Cnf.Formula.iter_clauses r.E.formula (fun c ->
        if List.exists (fun l -> Cnf.Lit.var l = 1) (Cnf.Clause.to_list c) then
          occurs := true);
    Alcotest.(check bool) "x2 substituted" false !occurs
  | E.Unsat_equiv -> Alcotest.fail "not unsat"

let detect_negated_pair () =
  (* (1 2)(-1 -2) makes x1 = ~x2 *)
  match E.detect (Th.formula_of [ [ 1; 2 ]; [ -1; -2 ]; [ 2; 3; 4 ] ]) with
  | E.Reduced r ->
    Alcotest.(check int) "one merged" 1 r.E.merged;
    let m = E.complete_model ~rep:r.E.rep [| true; true; false; false |] in
    Alcotest.(check bool) "complement restored" true (m.(0) <> m.(1))
  | E.Unsat_equiv -> Alcotest.fail "not unsat"

let chain_of_equivalences () =
  (* x1=x2=x3=x4: three merged *)
  let f =
    Th.formula_of
      [ [ 1; -2 ]; [ -1; 2 ]; [ 2; -3 ]; [ -2; 3 ]; [ 3; -4 ]; [ -3; 4 ] ]
  in
  match E.detect f with
  | E.Reduced r -> Alcotest.(check int) "three merged" 3 r.E.merged
  | E.Unsat_equiv -> Alcotest.fail "not unsat"

let contradiction_cycle () =
  (* x1 -> x2 -> ~x1 and ~x1 -> x2? build x = ~x via 2-clauses:
     (x1 -> x2), (x2 -> ~x1), (~x1 -> x2)? simpler: (1 1)? Use
     (−1 2)(−2 −1)(1 2)... i.e. x1 <-> x2 and x1 <-> ~x2 *)
  let f = Th.formula_of [ [ 1; -2 ]; [ -1; 2 ]; [ 1; 2 ]; [ -1; -2 ] ] in
  match E.detect f with
  | E.Unsat_equiv -> ()
  | E.Reduced _ -> Alcotest.fail "expected contradiction"

let no_binary_clauses () =
  let f = Th.formula_of [ [ 1; 2; 3 ]; [ -1; -2; -3 ] ] in
  match E.detect f with
  | E.Reduced r -> Alcotest.(check int) "nothing merged" 0 r.E.merged
  | E.Unsat_equiv -> Alcotest.fail "not unsat"

let prop_reduction_preserves_models =
  QCheck.Test.make ~name:"equivalence reduction preserves satisfiability"
    ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
       let rng = Sat.Rng.create (seed + 7) in
       let nv = 4 + Sat.Rng.int rng 6 in
       let f = Th.random_cnf rng nv (3 + Sat.Rng.int rng 20) 4 in
       (* inject random equivalence pairs *)
       for _ = 1 to 2 do
         let a = Sat.Rng.int rng nv and b = Sat.Rng.int rng nv in
         if a <> b then begin
           Cnf.Formula.add_clause_l f [ Cnf.Lit.pos a; Cnf.Lit.neg_of_var b ];
           Cnf.Formula.add_clause_l f [ Cnf.Lit.neg_of_var a; Cnf.Lit.pos b ]
         end
       done;
       let expected = Th.outcome_sat (Sat.Brute.solve f) in
       match E.detect f with
       | E.Unsat_equiv -> not expected
       | E.Reduced r -> (
           match Th.solve_cdcl r.E.formula with
           | Sat.Types.Sat m ->
             expected
             &&
             let full = E.complete_model ~rep:r.E.rep m in
             Cnf.Formula.eval (fun v -> full.(v)) f
           | Sat.Types.Unsat -> not expected
           | Sat.Types.Unsat_assuming _ | Sat.Types.Unknown _ -> false))

let miter_detects_equivalences () =
  (* equivalence reasoning on a miter finds merged variables *)
  let c = Circuit.Generators.parity ~bits:4 in
  let c2 = Circuit.Transform.double_invert ~seed:3 c in
  let f, _ = Circuit.Miter.to_cnf c c2 in
  match E.detect f with
  | E.Reduced r ->
    Alcotest.(check bool) "miter equivalences found" true (r.E.merged > 0)
  | E.Unsat_equiv -> Alcotest.fail "unexpected"

let past_deadline_merges_nothing () =
  (* the SCC search stops at once: the input comes back unchanged *)
  let f = Th.formula_of [ [ 1; -2 ]; [ -1; 2 ]; [ 1; 2 ]; [ -1; -2 ] ] in
  match E.detect ~deadline:0. f with
  | E.Reduced r ->
    Alcotest.(check int) "none merged" 0 r.E.merged;
    Alcotest.(check bool) "same formula" true (r.E.formula == f);
    Alcotest.(check bool) "identity map" true
      (Array.for_all Fun.id (Array.mapi (fun v l -> l = Cnf.Lit.pos v) r.E.rep))
  | E.Unsat_equiv -> Alcotest.fail "no verdict past the deadline"

let suite =
  [
    Th.case "pair" detect_pair;
    Th.case "negated pair" detect_negated_pair;
    Th.case "chain" chain_of_equivalences;
    Th.case "contradiction" contradiction_cycle;
    Th.case "no binaries" no_binary_clauses;
    Th.case "past deadline merges nothing" past_deadline_merges_nothing;
    Th.case "miter equivalences" miter_detects_equivalences;
    Th.qcheck prop_reduction_preserves_models;
  ]
