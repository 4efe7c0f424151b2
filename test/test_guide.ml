(* Guidance seeding and per-instance auto-tuning.

   These tests pin the docs/TUNING.md contract: the seeding formulas of
   Sat.Guide, the feature formulas and decision table of Sat.Autotune,
   and the answer-preservation property of the whole --auto path (every
   SAT model validated, every UNSAT re-certified). *)

module T = Sat.Types
module G = Sat.Guide
module A = Sat.Autotune

let php = Test_session.php
let feps = 1e-9
let checkf msg expect got = Alcotest.(check (float feps)) msg expect got

let assoc msg v l =
  match List.assoc_opt v l with
  | Some x -> x
  | None -> Alcotest.failf "%s: var %d not seeded" msg v

(* --- seeding formulas ----------------------------------------------------- *)

(* activity(v) = (0.5 + 0.5*fanout/fmax) * (1 - |2*prob - 1|),
   phase(v) = prob >= 0.5, fmax = max fanout (at least 1). *)
let observations_pinned () =
  let g =
    G.of_observations
      [
        { G.var = 0; prob = 0.5; fanout = 2 };
        { G.var = 1; prob = 1.0; fanout = 4 };
        { G.var = 2; prob = 0.25; fanout = 1 };
      ]
  in
  let act = g.T.seed_activity and ph = g.T.seed_phase in
  checkf "undecided mid-fanout" 0.75 (assoc "act" 0 act);
  checkf "settled signal earns nothing" 0.0 (assoc "act" 1 act);
  checkf "quarter probability" 0.3125 (assoc "act" 2 act);
  Alcotest.(check bool) "phase at 0.5 is true" true (assoc "ph" 0 ph);
  Alcotest.(check bool) "phase at 1.0" true (assoc "ph" 1 ph);
  Alcotest.(check bool) "phase at 0.25" false (assoc "ph" 2 ph)

(* Jeroslow-Wang: w(l) = sum over clauses with l of 2^-|c|;
   activity(v) = (w+ + w-)/maxw, phase(v) = w+ >= w-. *)
let of_formula_pinned () =
  let f = Cnf.Formula.create ~nvars:4 () in
  List.iter (Cnf.Formula.add_dimacs f) [ [ 1; 2 ]; [ -1; 2 ]; [ -2; 3 ] ];
  let g = G.of_formula f in
  let act = g.T.seed_activity and ph = g.T.seed_phase in
  (* per-var totals: v1 = 0.5, v2 = 0.75, v3 = 0.25; maxw = 0.75 *)
  checkf "v1" (0.5 /. 0.75) (assoc "act" 0 act);
  checkf "v2 is the max" 1.0 (assoc "act" 1 act);
  checkf "v3" (0.25 /. 0.75) (assoc "act" 2 act);
  Alcotest.(check bool) "tied weight phases true" true (assoc "ph" 0 ph);
  Alcotest.(check bool) "positive-heavy v2" true (assoc "ph" 1 ph);
  Alcotest.(check bool) "positive-only v3" true (assoc "ph" 2 ph);
  (* the unmentioned 4th variable is not seeded at all *)
  Alcotest.(check bool) "v4 unseeded" true (List.assoc_opt 3 act = None);
  Alcotest.(check int) "nseeded" 3 (G.nseeded g)

let of_formula_deterministic () =
  let build () =
    let rng = Sat.Rng.create 7 in
    Th.random_cnf rng 40 120 3
  in
  let g1 = G.of_formula (build ()) and g2 = G.of_formula (build ()) in
  Alcotest.(check bool) "same activities" true
    (g1.T.seed_activity = g2.T.seed_activity);
  Alcotest.(check bool) "same phases" true (g1.T.seed_phase = g2.T.seed_phase)

(* --- applying guidance ---------------------------------------------------- *)

let guided_answers_unchanged () =
  let check_same f =
    let guided =
      { T.default with T.guide = Some (G.of_formula f) }
    in
    let plain = Th.solve_cdcl f and g = Th.solve_cdcl ~config:guided f in
    match (plain, g) with
    | T.Sat _, T.Sat m ->
      Alcotest.(check bool) "guided model valid" true
        (Cnf.Formula.eval (fun v -> m.(v)) f)
    | T.Unsat, T.Unsat -> ()
    | _ -> Alcotest.fail "guided and unguided answers differ"
  in
  check_same (php 5 5);
  check_same (php 5 4);
  let rng = Sat.Rng.create 11 in
  for _ = 1 to 20 do
    check_same (Th.random_cnf rng 20 60 3)
  done

let guidance_out_of_range_ignored () =
  let f = Th.formula_of [ [ 1; 2 ]; [ -1; 2 ] ] in
  let g =
    {
      T.seed_activity = [ (999, 0.5); (-3, 0.7); (0, 0.9) ];
      seed_phase = [ (999, true); (1, false) ];
    }
  in
  match Th.solve_cdcl ~config:{ T.default with T.guide = Some g } f with
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
  Sat.Session.apply_guidance sess (G.of_formula f);
  match Sat.Session.solve sess with
  | T.Sat m ->
    Alcotest.(check bool) "guided session model valid" true
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
  checkf "ratio" 1.0 ft.A.clause_var_ratio;
  checkf "binary" (2. /. 3.) ft.A.binary_frac;
  checkf "ternary" (1. /. 3.) ft.A.ternary_frac;
  checkf "all horn" 1.0 ft.A.horn_frac;
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

let ft ?(nvars = 100) ?(nclauses = 500) ?(r = 1.0) ?(b2 = 0.0) ?(b3 = 0.0)
    ?(horn = 0.0) ?(g = 0.0) ?(d = 0.0) () =
  {
    A.nvars;
    nclauses;
    clause_var_ratio = r;
    binary_frac = b2;
    ternary_frac = b3;
    horn_frac = horn;
    gate_like_frac = g;
    probe_density = d;
    probe_failed_frac = 0.0;
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

let selector_restart_guidance_rules () =
  (match (A.select (ft ~g:0.25 ~r:5.0 ~b3:0.9 ())).A.restarts with
   | T.Luby 100 -> ()
   | _ -> Alcotest.fail "R1: gate-like keeps fast Luby-100");
  (match (A.select (ft ~g:0.0 ~r:3.5 ~b3:0.5 ())).A.restarts with
   | T.Luby 512 -> ()
   | _ -> Alcotest.fail "R2: random-3SAT-shaped slows restarts");
  (match (A.select (ft ~g:0.0 ~r:3.4 ~b3:0.9 ())).A.restarts with
   | T.Luby 100 -> ()
   | _ -> Alcotest.fail "R3: default Luby-100");
  Alcotest.(check bool) "G1: gate-like is guided" true
    (A.select (ft ~g:0.25 ())).A.guided;
  Alcotest.(check bool) "G0: otherwise unguided" false
    (A.select (ft ~g:0.24 ())).A.guided

let selector_reason_trail () =
  let p = A.select ~jobs:1 (ft ~nclauses:2000 ~r:4.0 ~b3:0.6 ()) in
  Alcotest.(check (list string)) "rule ids in dimension order"
    [ "E1"; "P3"; "R2"; "G0" ]
    p.A.reason;
  let q = A.select ~jobs:2 (ft ~nclauses:150 ~g:0.5 ~d:0.5 ()) in
  Alcotest.(check (list string)) "gate-like trail"
    [ "E2"; "P1"; "R1"; "G1" ]
    q.A.reason

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
  let plan = Sat.Solver.Auto.plan f in
  Alcotest.(check (list string)) "tiny gate formula"
    [ "E1"; "P1"; "R1"; "G1" ]
    plan.Sat.Solver.Auto.policy.A.reason;
  Alcotest.(check bool) "G1 produced a non-empty seeding" true
    (plan.Sat.Solver.Auto.guidance <> None);
  match plan.Sat.Solver.Auto.engine with
  | Sat.Solver.Cdcl cfg ->
    Alcotest.(check bool) "guidance attached to the engine config" true
      (cfg.T.guide <> None)
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
  Alcotest.(check int) "autotune/guided" 1 (c "autotune/guided");
  Alcotest.(check int) "guide/applications" 1 (c "guide/applications");
  Alcotest.(check int) "guide/seeded_vars" 3 (c "guide/seeded_vars");
  Alcotest.(check bool) "gate_like_frac gauge" true
    (Sat.Metrics.gauge_value (Sat.Metrics.gauge reg "autotune/gate_like_frac")
     > 0.0)

(* --- guided EDA pipelines ------------------------------------------------- *)

let bmc_guided_agrees () =
  let seq = Circuit.Sequential.counter ~bits:3 ~buggy_at:(Some 5) in
  let plain = Eda.Bmc.check ~max_bound:10 seq
  and guided = Eda.Bmc.check ~guide:true ~max_bound:10 seq in
  (match (plain.Eda.Bmc.result, guided.Eda.Bmc.result) with
   | Eda.Bmc.Counterexample a, Eda.Bmc.Counterexample b ->
     Alcotest.(check int) "same counterexample length" (List.length a)
       (List.length b)
   | _ -> Alcotest.fail "both runs must find the bug");
  let ok = Circuit.Sequential.counter ~bits:3 ~buggy_at:None in
  match (Eda.Bmc.check ~guide:true ~max_bound:6 ok).Eda.Bmc.result with
  | Eda.Bmc.No_counterexample -> ()
  | _ -> Alcotest.fail "guided BMC invented a counterexample"

(* --- the service path ----------------------------------------------------- *)

let scheduler_autotune () =
  let module P = Service.Protocol in
  let module J = Sat.Json in
  let clauses_of f =
    let out = ref [] in
    Cnf.Formula.iter_clauses f (fun c ->
        out := List.map Cnf.Lit.to_dimacs (Cnf.Clause.to_list c) :: !out);
    List.rev !out
  in
  let sch = Service.Scheduler.create ~jobs:2 ~autotune:true () in
  (match Service.Scheduler.solve sch (P.mk_solve (clauses_of (php 5 5))) with
   | Ok a ->
     (match a.Service.Scheduler.outcome with
      | T.Sat m ->
        Alcotest.(check bool) "tuned model valid" true
          (Cnf.Formula.eval (fun v -> m.(v)) (php 5 5))
      | o -> Alcotest.failf "expected sat, got %a" T.pp_outcome o)
   | Error _ -> Alcotest.fail "refused");
  (match Service.Scheduler.solve sch (P.mk_solve (clauses_of (php 5 4))) with
   | Ok a ->
     (match a.Service.Scheduler.outcome with
      | T.Unsat -> ()
      | o -> Alcotest.failf "expected unsat, got %a" T.pp_outcome o)
   | Error _ -> Alcotest.fail "refused");
  (* a budgeted query must keep exact budget semantics: never tuned *)
  (match
     Service.Scheduler.solve sch
       (P.mk_solve ~max_conflicts:5 (clauses_of (php 7 6)))
   with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "refused");
  (match
     Option.bind
       (J.member "service" (Service.Scheduler.stats_json sch))
       (J.member "autotuned")
   with
   | Some (J.Int n) ->
     Alcotest.(check int) "two cold unbudgeted queries tuned" 2 n
   | _ -> Alcotest.fail "stats_json lacks service.autotuned");
  Service.Scheduler.shutdown sch

let suite =
  [
    Th.case "of_observations pins the published formulas" observations_pinned;
    Th.case "of_formula pins Jeroslow-Wang" of_formula_pinned;
    Th.case "of_formula is deterministic" of_formula_deterministic;
    Th.case "guided answers unchanged" guided_answers_unchanged;
    Th.case "out-of-range seeds ignored" guidance_out_of_range_ignored;
    Th.case "session apply_guidance" session_apply_guidance;
    Th.case "seed ceiling after a rescale" seed_ceiling_after_rescale;
    Th.case "extract pins the feature formulas" extract_pinned;
    Th.case "extract is deterministic" extract_deterministic;
    Th.case "probe density separates chain from chaff" probe_density_regression;
    Th.case "selector engine rules" selector_engine_rules;
    Th.case "selector preprocess rules" selector_preprocess_rules;
    Th.case "selector restart/guidance rules" selector_restart_guidance_rules;
    Th.case "selector reason trail" selector_reason_trail;
    Th.case "select is a pure function" select_pure;
    Th.case "auto agrees with certified answers (300 instances)"
      auto_agrees_with_certified;
    Th.case "auto plan matches the table" auto_plan_matches_table;
    Th.case "auto emits metrics" auto_emits_metrics;
    Th.case "guided BMC agrees" bmc_guided_agrees;
    Th.case "scheduler autotunes cold queries" scheduler_autotune;
  ]
