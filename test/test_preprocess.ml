module P = Sat.Preprocess

let units_propagated () =
  match P.run (Th.formula_of [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ]; [ 3; 4 ] ]) with
  | P.Simplified s ->
    Alcotest.(check int) "units" 3 s.P.stats.P.units;
    Alcotest.(check int) "everything satisfied" 0
      (Cnf.Formula.nclauses s.P.formula);
    let m = P.complete_model s (Array.make 4 false) in
    Alcotest.(check bool) "fix applies" true (m.(0) && m.(1) && m.(2))
  | P.Unsat -> Alcotest.fail "not unsat"

let unsat_detected () =
  (match P.run (Th.formula_of [ [ 1 ]; [ -1 ] ]) with
   | P.Unsat -> ()
   | P.Simplified _ -> Alcotest.fail "expected unsat");
  match P.run (Th.formula_of [ [ 1 ]; [ -1; 2 ]; [ -2 ] ]) with
  | P.Unsat -> ()
  | P.Simplified _ -> Alcotest.fail "expected chained unsat"

let pure_literals () =
  (* x1 appears only positively *)
  match P.run (Th.formula_of [ [ 1; 2 ]; [ 1; -2; 3 ]; [ 3; -2 ] ]) with
  | P.Simplified s ->
    Alcotest.(check bool) "pures found" true (s.P.stats.P.pures > 0)
  | P.Unsat -> Alcotest.fail "not unsat"

let subsumption_removes () =
  (* (~1 2) subsumes the longer clauses: every input clause is checked
     before any pure literal is fixed *)
  match
    P.run (Th.formula_of [ [ -1; 2 ]; [ -1; 2; 3 ]; [ -1; 2; 4 ]; [ 1; -2 ] ])
  with
  | P.Simplified s ->
    Alcotest.(check int) "subsumed" 2 s.P.stats.P.subsumed
  | P.Unsat -> Alcotest.fail "not unsat"

let strengthening_fires () =
  (* (1 2) strengthens (-1 2 3) to (2 3), which then subsumes (2 3 4) *)
  match P.run (Th.formula_of [ [ 1; 2 ]; [ -1; 2; 3 ]; [ 2; 3; 4 ] ]) with
  | P.Simplified s ->
    Alcotest.(check bool) "strengthened" true (s.P.stats.P.strengthened > 0)
  | P.Unsat -> Alcotest.fail "not unsat"

let probing_finds_failed_literals () =
  (* assuming -1 propagates a conflict through (1 2)(1 -2), forcing 1;
     every variable occurs in both polarities so pure literals can't
     pre-empt the probe *)
  match
    P.run ~probe_failed_literals:true
      (Th.formula_of [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 3; 4 ]; [ -3; -4 ] ])
  with
  | P.Simplified s ->
    Alcotest.(check bool) "failed literal" true
      (s.P.stats.P.failed_literals + s.P.stats.P.units > 0);
    let m = P.complete_model s (Array.make 4 false) in
    Alcotest.(check bool) "x1 fixed true" true m.(0)
  | P.Unsat -> Alcotest.fail "unexpected unsat"

(* --- bounded variable elimination -------------------------------------- *)

let bve_eliminates_and_reconstructs () =
  (* x2 has one positive and two negative occurrences; its only
     non-tautological resolvent (1 3) replaces three clauses.  Pures are
     off so elimination is what does the work. *)
  let f = Th.formula_of [ [ 1; 2 ]; [ -2; 3 ]; [ -1; -2 ] ] in
  match P.run ~pures:false f with
  | P.Unsat -> Alcotest.fail "not unsat"
  | P.Simplified s ->
    Alcotest.(check bool) "elimination fired" true (s.P.stats.P.eliminated > 0);
    (match Th.solve_cdcl s.P.formula with
     | Sat.Types.Sat m ->
       let full = P.complete_model s m in
       Alcotest.(check bool) "reconstructed model satisfies original" true
         (Cnf.Formula.eval (fun v -> full.(v)) f)
     | _ -> Alcotest.fail "simplified formula must stay SAT")

let bve_respects_frozen () =
  let f = Th.formula_of [ [ 1; 2 ]; [ -2; 3 ]; [ -1; -2 ] ] in
  match P.run ~pures:false ~frozen:[ 0; 1; 2 ] f with
  | P.Unsat -> Alcotest.fail "not unsat"
  | P.Simplified s ->
    Alcotest.(check int) "nothing eliminated when all vars frozen" 0
      s.P.stats.P.eliminated;
    Alcotest.(check (list (pair int bool))) "no fixes invented" [] s.P.fix

let bve_respects_caps () =
  (* Only x1 and x2 are candidates; each has a 12-literal resolvent
     (with (-1 8 .. 13) and (-2 14 .. 19) respectively), so the 8-literal
     cap must abort both eliminations that the clause-count bound alone
     would allow. *)
  let f =
    Th.formula_of
      [ [ 1; 2; 3; 4; 5; 6; 7 ]; [ -1; 8; 9; 10; 11; 12; 13 ];
        [ -2; 14; 15; 16; 17; 18; 19 ]; [ -1; -2; 20 ] ]
  in
  match P.run ~pures:false ~frozen:(List.init 18 (fun i -> i + 2)) f with
  | P.Unsat -> Alcotest.fail "not unsat"
  | P.Simplified s ->
    Alcotest.(check int) "clause cap blocks elimination" 0
      s.P.stats.P.eliminated;
    Alcotest.(check int) "clauses untouched" 4
      (Cnf.Formula.nclauses s.P.formula)

(* The output is a fixpoint of the passes: no unit clause, no clause over
   a fixed or eliminated variable, no clause subsumed by another. *)
let at_fixpoint (s : P.simplified) =
  let cs = Cnf.Formula.clauses s.P.formula in
  let gone v =
    List.mem_assoc v s.P.fix || List.exists (fun e -> e.P.evar = v) s.P.elim
  in
  let open_clause c =
    Cnf.Clause.size c > 1
    && List.for_all (fun l -> not (gone (Cnf.Lit.var l))) (Cnf.Clause.to_list c)
  in
  let subsumed j d =
    Array.exists Fun.id
      (Array.mapi (fun i c -> i <> j && Cnf.Clause.subsumes c d) cs)
  in
  Array.for_all open_clause cs
  && not (Array.exists Fun.id (Array.mapi subsumed cs))

let prop_bve_vs_dpll =
  (* verdicts against an independent DPLL arbiter, every SAT model
     reconstructed through the elimination stack must satisfy the
     original clauses, and the output must be at a fixpoint *)
  QCheck.Test.make ~name:"bve preserves verdicts and reconstructs models"
    ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
       let rng = Sat.Rng.create (seed + 11) in
       let nvars = 4 + Sat.Rng.int rng 12 in
       let f = Th.random_cnf rng nvars (2 + Sat.Rng.int rng (4 * nvars)) 4 in
       let dpll, _ = Sat.Dpll.solve f in
       let expected = Th.outcome_sat dpll in
       match P.run f with
       | P.Unsat -> not expected
       | P.Simplified s -> (
           at_fixpoint s
           &&
           match Th.solve_cdcl s.P.formula with
           | Sat.Types.Sat m ->
             expected
             &&
             let full = P.complete_model s m in
             Cnf.Formula.eval (fun v -> full.(v)) f
           | Sat.Types.Unsat -> not expected
           | Sat.Types.Unsat_assuming _ | Sat.Types.Unknown _ -> false))

let prop_equisatisfiable_and_model_complete =
  QCheck.Test.make ~name:"preprocessing preserves satisfiability" ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
       let rng = Sat.Rng.create (seed + 3) in
       let f = Th.random_cnf rng (3 + Sat.Rng.int rng 8) (3 + Sat.Rng.int rng 30) 4 in
       let expected = Th.outcome_sat (Sat.Brute.solve f) in
       match P.run ~probe_failed_literals:(seed mod 2 = 0) f with
       | P.Unsat -> not expected
       | P.Simplified s -> (
           match Th.solve_cdcl s.P.formula with
           | Sat.Types.Sat m ->
             expected
             &&
             let full = P.complete_model s m in
             Cnf.Formula.eval (fun v -> full.(v)) f
           | Sat.Types.Unsat -> not expected
           | Sat.Types.Unsat_assuming _ | Sat.Types.Unknown _ -> false))

(* Bounded variable elimination with a frozen set must stay sound when
   the formula later grows with clauses over the frozen variables — the
   Session workflow for callers who know their growth variables in
   advance.  Unit/failed-literal fixes are re-asserted inside the
   session. *)
let frozen_growth_sound () =
  for seed = 0 to 99 do
    let rng = Sat.Rng.create (seed + 1_000) in
    let nvars = 8 + Sat.Rng.int rng 8 in
    let nfrozen = 2 + Sat.Rng.int rng 4 in
    let frozen = List.init nfrozen (fun v -> v) in
    let f = Th.random_cnf rng nvars (2 * nvars + Sat.Rng.int rng nvars) 4 in
    let growth =
      List.init
        (1 + Sat.Rng.int rng 4)
        (fun _ ->
           List.init
             (1 + Sat.Rng.int rng 2)
             (fun _ ->
                Cnf.Lit.of_var (Sat.Rng.int rng nfrozen) (Sat.Rng.bool rng)))
    in
    let combined = Cnf.Formula.create ~nvars () in
    Cnf.Formula.iter_clauses f (fun c ->
        Cnf.Formula.add_clause_l combined (Cnf.Clause.to_list c));
    List.iter (Cnf.Formula.add_clause_l combined) growth;
    let dpll, _ = Sat.Dpll.solve combined in
    let expected = Th.outcome_sat dpll in
    match P.run ~pures:false ~frozen f with
    | P.Unsat ->
      if expected then Alcotest.failf "seed %d: preprocessing wrongly UNSAT" seed
    | P.Simplified s ->
      let sess = Sat.Session.of_formula s.P.formula in
      List.iter
        (fun (v, b) -> Sat.Session.add_clause sess [ Cnf.Lit.of_var v b ])
        s.P.fix;
      ignore (Sat.Session.solve sess);
      List.iter (Sat.Session.add_clause sess) growth;
      (match Sat.Session.solve sess with
       | Sat.Types.Sat _ ->
         if not expected then
           Alcotest.failf "seed %d: session SAT but combined UNSAT" seed;
         let m =
           match Sat.Session.model sess with
           | Some m -> m
           | None -> Alcotest.failf "seed %d: SAT without a model" seed
         in
         let full = P.complete_model s m in
         if not (Cnf.Formula.eval (fun v -> full.(v)) combined) then
           Alcotest.failf "seed %d: completed model violates combined formula"
             seed
       | Sat.Types.Unsat ->
         if expected then
           Alcotest.failf "seed %d: session UNSAT but combined SAT" seed
       | Sat.Types.Unsat_assuming _ | Sat.Types.Unknown _ ->
         Alcotest.failf "seed %d: inconclusive session query" seed)
  done

(* A deadline already past stops the run before its first variable
   visit, with nothing eliminated; the fixed literals are still
   propagated, so no output clause mentions a fixed variable, and a
   model of the output extends to one of the input.  The formulas
   carry unit clauses (lengths 1 to 3), so that propagation has work. *)
let past_deadline_sound () =
  let deadline = Th.within (-1.) in
  for seed = 0 to 49 do
    let rng = Sat.Rng.create (seed + 101) in
    let f = Th.random_cnf rng 30 (40 + Sat.Rng.int rng 60) 3 in
    let expected = Th.outcome_sat (Th.solve_cdcl f) in
    match P.run ~probe_failed_literals:(seed mod 2 = 0) ~deadline f with
    | P.Unsat -> Alcotest.(check bool) "unsat verdict" false expected
    | P.Simplified s ->
      Alcotest.(check int) "nothing eliminated" 0 s.P.stats.P.eliminated;
      Cnf.Formula.iter_clauses s.P.formula (fun c ->
          List.iter
            (fun l ->
               Alcotest.(check bool) "no fixed variable left" false
                 (List.mem_assoc (Cnf.Lit.var l) s.P.fix))
            (Cnf.Clause.to_list c));
      (match Th.solve_cdcl s.P.formula with
       | Sat.Types.Sat m ->
         let full = P.complete_model s m in
         Alcotest.(check bool) "completed model satisfies the input" true
           (expected && Cnf.Formula.eval (fun v -> full.(v)) f)
       | _ -> Alcotest.(check bool) "unsat verdict" false expected)
  done

(* With a registry, one run adds one timed run to each per-pass timer
   and registers nothing else. *)
let pass_timers () =
  let m = Sat.Metrics.create () in
  let f = Th.formula_of [ [ 1; 2 ]; [ -1; 3 ]; [ -2; 3 ]; [ 1; -3; 4 ] ] in
  ignore (P.run ~metrics:m ~probe_failed_literals:true f);
  let names =
    match Sat.Json.member "timers" (Sat.Metrics.to_json m) with
    | Some (Sat.Json.Obj kvs) -> List.map fst kvs
    | _ -> []
  in
  Alcotest.(check (list string)) "timers"
    [ "preprocess/elimination"; "preprocess/probing"; "preprocess/subsumption" ]
    names;
  List.iter
    (fun name ->
       Alcotest.(check bool) (name ^ " non-negative") true
         (Sat.Metrics.timer_seconds (Sat.Metrics.timer m name) >= 0.))
    names

let suite =
  [
    Th.case "units" units_propagated;
    Th.case "unsat detection" unsat_detected;
    Th.case "pure literals" pure_literals;
    Th.case "subsumption" subsumption_removes;
    Th.case "strengthening" strengthening_fires;
    Th.case "failed literal probing" probing_finds_failed_literals;
    Th.case "bve eliminates and reconstructs" bve_eliminates_and_reconstructs;
    Th.case "bve respects frozen" bve_respects_frozen;
    Th.case "bve respects caps" bve_respects_caps;
    Th.case "frozen elimination sound under session growth" frozen_growth_sound;
    Th.case "past deadline keeps the store sound" past_deadline_sound;
    Th.case "per-pass timers" pass_timers;
    Th.qcheck prop_bve_vs_dpll;
    Th.qcheck prop_equisatisfiable_and_model_complete;
  ]
