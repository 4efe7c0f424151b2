module RL = Sat.Recursive_learning

(* Figure 4 of the paper: w1 = (u + x + ~w), w2 = (x + ~y),
   w3 = (w + y + ~z); assumptions z=1, u=0 imply x=1 with explanation
   (~z + u + x). *)
let fig4_formula () =
  let u = 0 and x = 1 and y = 2 and z = 3 and w = 4 in
  let f = Cnf.Formula.create ~nvars:5 () in
  Cnf.Formula.add_clause_l f [ Cnf.Lit.pos u; Cnf.Lit.pos x; Cnf.Lit.neg_of_var w ];
  Cnf.Formula.add_clause_l f [ Cnf.Lit.pos x; Cnf.Lit.neg_of_var y ];
  Cnf.Formula.add_clause_l f [ Cnf.Lit.pos w; Cnf.Lit.pos y; Cnf.Lit.neg_of_var z ];
  (f, u, x, z)

let figure4 () =
  let f, u, x, z = fig4_formula () in
  let r =
    RL.learn ~assumptions:[ Cnf.Lit.pos z; Cnf.Lit.neg_of_var u ] f
  in
  Alcotest.(check bool) "consistent" false r.RL.unsat;
  Alcotest.(check bool) "x necessary" true
    (List.mem (Cnf.Lit.pos x) r.RL.necessary);
  let expected = Cnf.Clause.of_dimacs_list [ 1; 2; -4 ] (* (u + x + ~z) *) in
  Alcotest.(check bool) "explanation clause matches the paper" true
    (List.exists (Cnf.Clause.equal expected) r.RL.implicates)

let no_assumptions_derives_units () =
  (* split on (1 2): both branches imply 3 via (-1 3)(-2 3) *)
  let f = Th.formula_of [ [ 1; 2 ]; [ -1; 3 ]; [ -2; 3 ] ] in
  let r = RL.learn f in
  Alcotest.(check bool) "x3 necessary" true
    (List.mem (Th.lit 3) r.RL.necessary);
  (* without assumptions the explanation is the unit clause *)
  Alcotest.(check bool) "unit implicate" true
    (List.exists
       (Cnf.Clause.equal (Cnf.Clause.of_dimacs_list [ 3 ]))
       r.RL.implicates)

let unsat_detection () =
  (* every way of satisfying (1 2) conflicts *)
  let f = Th.formula_of [ [ 1; 2 ]; [ -1; 3 ]; [ -1; -3 ]; [ -2; 3 ]; [ -2; -3 ] ] in
  let r = RL.learn f in
  Alcotest.(check bool) "unsat discovered" true r.RL.unsat

let depth2_stronger () =
  (* a chain where depth 1 finds nothing but depth 2 does: split on
     (1 2); in each branch another split on (3 4) is needed to see 5 *)
  let f =
    Th.formula_of
      [
        [ 1; 2 ]; [ 3; 4 ];
        [ -1; -3; 5 ]; [ -1; -4; 5 ];
        [ -2; -3; 5 ]; [ -2; -4; 5 ];
      ]
  in
  let r1 = RL.learn ~depth:1 f in
  let r2 = RL.learn ~depth:2 f in
  Alcotest.(check bool) "depth1 misses x5" false
    (List.mem (Th.lit 5) r1.RL.necessary);
  Alcotest.(check bool) "depth2 finds x5" true
    (List.mem (Th.lit 5) r2.RL.necessary)

let fixpoint_iteration () =
  (* first pass derives 3; second pass uses it to derive 4 *)
  let f = Th.formula_of [ [ 1; 2 ]; [ -1; 3 ]; [ -2; 3 ]; [ -3; 4 ] ] in
  let r = RL.learn f in
  Alcotest.(check bool) "x4 follows" true (List.mem (Th.lit 4) r.RL.necessary
                                           || List.length r.RL.necessary >= 1)

let implicate_refreshes_implications () =
  (* (1 2) gives x3 first.  Stage i then gates a ternary chain on the
     previous stage's literal x: (-x p q) (-x -p y) (-x -q y) gives y
     once x holds, and before that no clause of the stage is
     effectively binary.  Each implicate asserted in the pass makes the
     next stage's clauses effectively binary, so the whole chain comes
     out of the first pass; implication marks kept after an assertion
     would leave one stage per pass, and the four passes would end
     before x15. *)
  let stage x i =
    let p = x + 1 + (3 * i) and q = x + 2 + (3 * i) and y = x + 3 + (3 * i) in
    [ [ -(x + (3 * i)); p; q ]; [ -(x + (3 * i)); -p; y ];
      [ -(x + (3 * i)); -q; y ] ]
  in
  let f =
    Th.formula_of
      ([ [ 1; 2 ]; [ -1; 3 ]; [ -2; 3 ] ]
       @ List.concat_map (stage 3) [ 0; 1; 2; 3 ])
  in
  let r = RL.learn f in
  List.iter
    (fun x ->
       Alcotest.(check bool)
         (Printf.sprintf "x%d necessary" x)
         true
         (List.mem (Th.lit x) r.RL.necessary))
    [ 3; 6; 9; 12; 15 ]

let deadline_stops_learning () =
  (* a deadline already past: no clause is examined *)
  let f = Th.formula_of [ [ 1; 2 ]; [ -1; 3 ]; [ -2; 3 ] ] in
  let r = RL.learn ~deadline:0. f in
  Alcotest.(check int) "no split" 0 r.RL.splits;
  Alcotest.(check bool) "nothing derived" true (r.RL.necessary = []);
  let g, r = RL.strengthen ~deadline:0. f in
  Alcotest.(check bool) "formula unchanged" true
    (Cnf.Formula.nclauses g = Cnf.Formula.nclauses f && r.RL.implicates = []);
  (* without binary clauses no split is probed, and the deadline still
     stops the count *)
  let g = Th.formula_of [ [ 1; 2; 3 ]; [ -1; 2; -3 ]; [ 1; -2; 4 ] ] in
  Alcotest.(check int) "ruled-out splits counted" 3 (RL.learn g).RL.splits;
  Alcotest.(check int) "none past the deadline" 0
    (RL.learn ~deadline:0. g).RL.splits

let strengthen_preserves_models () =
  let rng = Sat.Rng.create 13 in
  for _ = 1 to 30 do
    let f = Th.random_cnf rng 8 22 3 in
    let g, r = RL.strengthen f in
    if not r.RL.unsat then begin
      (* same model sets over original variables *)
      for mask = 0 to 255 do
        let value v = mask land (1 lsl v) <> 0 in
        Alcotest.(check bool) "model sets equal"
          (Cnf.Formula.eval value f) (Cnf.Formula.eval value g)
      done
    end
    else
      Alcotest.(check bool) "unsat confirmed" false
        (Th.outcome_sat (Sat.Brute.solve f))
  done

let prop_implicates_sound =
  QCheck.Test.make ~name:"recursive learning implicates are implicates"
    ~count:100
    QCheck.(pair (int_bound 100_000) (int_range 1 2))
    (fun (seed, depth) ->
       let rng = Sat.Rng.create (seed + 19) in
       let f = Th.random_cnf rng (3 + Sat.Rng.int rng 7) (3 + Sat.Rng.int rng 25) 3 in
       let r = RL.learn ~depth f in
       if r.RL.unsat then not (Th.outcome_sat (Sat.Brute.solve f))
       else
         List.for_all (fun c -> Cnf.Resolution.is_implicate f c) r.RL.implicates)

let prop_implicates_sound_under_assumptions =
  QCheck.Test.make ~name:"assumption-context implicates remain implicates"
    ~count:300
    QCheck.(int_bound 100_000)
    (fun seed ->
       let rng = Sat.Rng.create (seed + 29) in
       let nv = 4 + Sat.Rng.int rng 6 in
       let f = Th.random_cnf rng nv (3 + Sat.Rng.int rng 20) 3 in
       let a1 = Cnf.Lit.of_var (Sat.Rng.int rng nv) (Sat.Rng.bool rng) in
       let a2 = Cnf.Lit.of_var (Sat.Rng.int rng nv) (Sat.Rng.bool rng) in
       QCheck.assume (Cnf.Lit.var a1 <> Cnf.Lit.var a2);
       let r = RL.learn ~assumptions:[ a1; a2 ] f in
       if r.RL.unsat then true
       else
         List.for_all (fun c -> Cnf.Resolution.is_implicate f c) r.RL.implicates)

let suite =
  [
    Th.case "figure 4" figure4;
    Th.case "root units" no_assumptions_derives_units;
    Th.case "unsat detection" unsat_detection;
    Th.case "depth 2 stronger" depth2_stronger;
    Th.case "fixpoint iteration" fixpoint_iteration;
    Th.case "implicates refresh implications" implicate_refreshes_implications;
    Th.case "deadline stops learning" deadline_stops_learning;
    Th.case "strengthen preserves models" strengthen_preserves_models;
    Th.qcheck prop_implicates_sound;
    Th.qcheck prop_implicates_sound_under_assumptions;
  ]
