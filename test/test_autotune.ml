(* Guidance application and per-instance auto-tuning.

   These tests pin the docs/TUNING.md contract: how Cdcl.apply_guidance
   applies seeds, the feature formulas and decision table of
   Sat.Autotune, and the answer-preservation property of the whole
   --auto path (every SAT model validated, every UNSAT re-certified). *)

module T = Sat.Types
module A = Sat.Autotune

let php = Test_session.php
let feps = 1e-9
let checkf msg expect got = Alcotest.(check (float feps)) msg expect got

(* --- applying guidance ---------------------------------------------------- *)

let guidance_out_of_range_ignored () =
  let f = Th.formula_of [ [ 1; 2 ]; [ -1; 2 ] ] in
  let g =
    {
      T.seed_activity = [ (999, 0.5); (-3, 0.7); (0, 0.9) ];
      seed_phase = [ (999, true); (1, false) ];
    }
  in
  let s = Sat.Cdcl.create f in
  Sat.Cdcl.apply_guidance s g;
  Alcotest.(check bool) "in-range seed applied" true
    (Sat.Cdcl.var_activity s 0 > 0.);
  match Sat.Cdcl.solve s with
  | T.Sat m ->
    Alcotest.(check bool) "model valid" true
      (Cnf.Formula.eval (fun v -> m.(v)) f)
  | _ -> Alcotest.fail "expected SAT"

let session_apply_guidance () =
  let f = php 5 5 in
  let sess = Sat.Session.create () in
  for _ = 1 to Cnf.Formula.nvars f do
    ignore (Sat.Session.new_var sess)
  done;
  Cnf.Formula.iter_clauses f (fun c ->
      Sat.Session.add_clause sess (Cnf.Clause.to_list c));
  (* every variable seeded, the first half at the ceiling *)
  let n = Cnf.Formula.nvars f in
  Sat.Session.apply_guidance sess
    { T.seed_activity =
        List.init n (fun v -> (v, if v < n / 2 then 1. else 0.5));
      seed_phase = List.init n (fun v -> (v, v mod 2 = 0)) };
  match Sat.Session.solve sess with
  | T.Sat m ->
    Alcotest.(check bool) "seeded session model valid" true
      (Cnf.Formula.eval (fun v -> m.(v)) f)
  | _ -> Alcotest.fail "php(5,5) is satisfiable"

(* The seeding ceiling is a running maximum of the activities.  Past
   5,000 conflicts VSIDS has rescaled every activity by 1e-100 at least
   once (its increment passes 1e100 near 4,490 conflicts), so a seed of
   1.0 must land at or above every live activity, and at most one decay
   step (1/0.95) above the largest: a maximum not rescaled with the
   activities would sit ~1e100 too high. *)
let seed_ceiling_after_rescale () =
  let s = Sat.Cdcl.create (php 10 9) in
  (match Sat.Cdcl.solve ~max_conflicts:6_000 s with
   | T.Unknown "budget" -> ()
   | o -> Alcotest.failf "expected budget, got %a" T.pp_outcome o);
  Alcotest.(check bool) "past one rescale" true
    ((Sat.Cdcl.stats s).T.conflicts >= 5_000);
  let scan = ref 0. in
  for v = 0 to Sat.Cdcl.nvars s - 1 do
    scan := Float.max !scan (Sat.Cdcl.var_activity s v)
  done;
  let fresh = Sat.Cdcl.new_var s in
  Sat.Cdcl.apply_guidance s
    { T.seed_activity = [ (fresh, 1.0) ]; seed_phase = [] };
  let c = Sat.Cdcl.var_activity s fresh in
  Alcotest.(check bool) "at or above every activity" true (c >= !scan);
  Alcotest.(check bool) "within one decay step" true (c <= !scan /. 0.95)

(* --- feature extraction --------------------------------------------------- *)

(* One Tseitin AND gate o = a AND b: (-o a)(-o b)(o -a -b). *)
let and_gate_cnf () = Th.formula_of [ [ -3; 1 ]; [ -3; 2 ]; [ 3; -1; -2 ] ]

let extract_pinned () =
  let ft = A.extract (and_gate_cnf ()) in
  Alcotest.(check int) "nvars" 3 ft.A.nvars;
  Alcotest.(check int) "nclauses" 3 ft.A.nclauses;
  (* only the gate output matches the occurrence profile *)
  checkf "one gate-shaped var of three" (1. /. 3.) ft.A.gate_like_frac;
  Alcotest.(check int) "every var probed" 3 ft.A.probes_run

let extract_deterministic () =
  let rng = Sat.Rng.create 23 in
  let f = Th.random_cnf rng 60 200 3 in
  let a = A.extract f and b = A.extract f in
  let strip ft = { ft with A.extraction_time_s = 0.0 } in
  Alcotest.(check bool) "same features" true (strip a = strip b)

let probe_density_regression () =
  (* an implication chain propagates nearly the whole trail per probe;
     disjoint binary clauses propagate nothing beyond the probe itself *)
  let n = 50 in
  let chain =
    Th.formula_of (List.init (n - 1) (fun i -> [ -(i + 1); i + 2 ]))
  in
  let pairs =
    Th.formula_of (List.init (n / 2) (fun i -> [ (2 * i) + 1; (2 * i) + 2 ]))
  in
  let dc = (A.extract chain).A.probe_density
  and dp = (A.extract pairs).A.probe_density in
  Alcotest.(check bool) "chain is dense" true (dc >= 0.1);
  Alcotest.(check bool) "chain denser than disjoint pairs" true (dc > dp);
  Alcotest.(check bool) "disjoint pairs are sparse" true (dp < 0.05)

(* --- the decision table --------------------------------------------------- *)

let ft ?(nvars = 100) ?(nclauses = 500) ?(g = 0.0) ?(d = 0.0) () =
  {
    A.nvars;
    nclauses;
    gate_like_frac = g;
    probe_density = d;
    probes_run = 0;
    extraction_time_s = 0.0;
  }

let selector_engine_rules () =
  (match (A.select ~jobs:1 (ft ~d:0.5 ())).A.engine with
   | A.Sequential -> ()
   | _ -> Alcotest.fail "E1: jobs<=1 is sequential");
  (match (A.select ~jobs:4 (ft ~d:0.05 ~nvars:100 ())).A.engine with
   | A.Cube_conquer 4 -> ()
   | _ -> Alcotest.fail "E2: dense and big goes cube-conquer");
  (match (A.select ~jobs:4 (ft ~d:0.05 ~nvars:63 ())).A.engine with
   | A.Portfolio_race 4 -> ()
   | _ -> Alcotest.fail "E3: too small for cubes races a portfolio");
  match (A.select ~jobs:4 (ft ~d:0.01 ~nvars:100 ())).A.engine with
  | A.Portfolio_race 4 -> ()
  | _ -> Alcotest.fail "E3: sparse propagation races a portfolio"

let selector_preprocess_rules () =
  (match (A.select (ft ~nclauses:199 ~g:0.9 ())).A.preprocess with
   | A.Pre_off -> ()
   | _ -> Alcotest.fail "P1: tiny formulas skip preprocessing");
  (match (A.select (ft ~nclauses:200 ~g:0.25 ())).A.preprocess with
   | A.Pre_full -> ()
   | _ -> Alcotest.fail "P2: gate-like earns the full pipeline");
  match (A.select (ft ~nclauses:200 ~g:0.24 ())).A.preprocess with
  | A.Pre_basic -> ()
  | _ -> Alcotest.fail "P3: everything else gets the basic pass"

let selector_reason_trail () =
  let p = A.select ~jobs:1 (ft ~nclauses:2000 ()) in
  Alcotest.(check (list string)) "rule ids in dimension order"
    [ "E1"; "P3" ]
    p.A.reason;
  let q = A.select ~jobs:2 (ft ~nclauses:150 ~g:0.5 ~d:0.5 ()) in
  Alcotest.(check (list string)) "gate-like trail" [ "E2"; "P1" ] q.A.reason

let select_pure () =
  let x = ft ~nclauses:2000 ~g:0.3 ~d:0.1 () in
  Alcotest.(check bool) "same features, same policy" true
    (A.select ~jobs:3 x = A.select ~jobs:3 x)

(* --- the auto path end to end --------------------------------------------- *)

(* Every --auto verdict must be reproducible by a certified run: SAT
   models are evaluated against the original formula, UNSAT answers are
   re-solved with proof logging and the refutation forward-checked. *)
let auto_agrees_with_certified () =
  let rng = Sat.Rng.create 0xA0 in
  let chain n =
    Th.formula_of
      ([ 1 ] :: List.init (n - 1) (fun i -> [ -(i + 1); i + 2 ]))
  in
  let instance i =
    if i mod 10 = 0 then begin
      (* structured: a miter of a random circuit against itself (UNSAT)
         or against a rewired sibling (usually SAT) *)
      let c1 = Circuit.Generators.random_circuit ~inputs:5 ~gates:20 ~seed:i in
      let c2 =
        if i mod 20 = 0 then fst (Circuit.Transform.inject_bug ~seed:i c1)
        else c1
      in
      fst (Circuit.Miter.to_cnf c1 c2)
    end
    else if i mod 10 = 5 then chain (64 + (i mod 37))
    else
      Th.random_cnf rng
        (8 + Sat.Rng.int rng 24)
        (20 + Sat.Rng.int rng 80)
        3
  in
  for i = 1 to 300 do
    let f = instance i in
    let jobs = if i mod 15 = 0 then 2 else 1 in
    let _plan, report = Sat.Solver.Auto.solve ~jobs f in
    match report.Sat.Solver.outcome with
    | T.Sat m ->
      if not (Cnf.Formula.eval (fun v -> m.(v)) f) then
        Alcotest.failf "instance %d: auto model does not satisfy" i
    | T.Unsat | T.Unsat_assuming _ -> (
      match Sat.Proof.solve_certified f with
      | (T.Unsat | T.Unsat_assuming _), Sat.Proof.Valid_refutation -> ()
      | (T.Unsat | T.Unsat_assuming _), _ ->
        Alcotest.failf "instance %d: refutation did not certify" i
      | T.Sat _, _ ->
        Alcotest.failf "instance %d: auto said UNSAT, certified run SAT" i
      | T.Unknown _, _ ->
        Alcotest.failf "instance %d: certified run inconclusive" i)
    | T.Unknown why ->
      Alcotest.failf "instance %d: auto gave up (%s)" i why
  done

let auto_plan_matches_table () =
  (* the plan the solver executes is the policy the table predicts *)
  let f = and_gate_cnf () in
  let config = { T.default with T.restarts = T.Luby 7 } in
  let plan = Sat.Solver.Auto.plan ~config f in
  Alcotest.(check (list string)) "tiny gate formula" [ "E1"; "P1" ]
    plan.Sat.Solver.Auto.policy.A.reason;
  match plan.Sat.Solver.Auto.engine with
  | Sat.Solver.Cdcl cfg ->
    Alcotest.(check bool) "the caller's config, restarts included" true
      (cfg = config)
  | _ -> Alcotest.fail "E1 must map to the sequential engine"

let auto_emits_metrics () =
  let reg = Sat.Metrics.create () in
  let f = and_gate_cnf () in
  (match (Sat.Solver.Auto.solve ~metrics:reg f : _ * Sat.Solver.report) with
   | _, { Sat.Solver.outcome = T.Sat _; _ } -> ()
   | _ -> Alcotest.fail "gate CNF is satisfiable");
  let c name = Sat.Metrics.counter_value (Sat.Metrics.counter reg name) in
  Alcotest.(check int) "autotune/runs" 1 (c "autotune/runs");
  Alcotest.(check int) "autotune/engine_cdcl" 1 (c "autotune/engine_cdcl");
  Alcotest.(check bool) "gate_like_frac gauge" true
    (Sat.Metrics.gauge_value (Sat.Metrics.gauge reg "autotune/gate_like_frac")
     > 0.0)

let suite =
  [
    Th.case "out-of-range seeds ignored" guidance_out_of_range_ignored;
    Th.case "session apply_guidance" session_apply_guidance;
    Th.case "seed ceiling after a rescale" seed_ceiling_after_rescale;
    Th.case "extract pins the feature formulas" extract_pinned;
    Th.case "extract is deterministic" extract_deterministic;
    Th.case "probe density separates chain from chaff" probe_density_regression;
    Th.case "selector engine rules" selector_engine_rules;
    Th.case "selector preprocess rules" selector_preprocess_rules;
    Th.case "selector reason trail" selector_reason_trail;
    Th.case "select is a pure function" select_pure;
    Th.case "auto agrees with certified answers (300 instances)"
      auto_agrees_with_certified;
    Th.case "auto plan matches the table" auto_plan_matches_table;
    Th.case "auto emits metrics" auto_emits_metrics;
  ]
