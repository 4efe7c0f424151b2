(* Incremental session layer: clause addition between solves, activation
   groups, per-call budgets and stats deltas, released-group pruning. *)

module T = Sat.Types
module S = Sat.Session
module Lit = Cnf.Lit

let php_clauses n m =
  let v i j = (i * m) + j + 1 in
  let cls = ref [] in
  for i = 0 to n - 1 do
    cls := List.init m (fun j -> v i j) :: !cls
  done;
  for j = 0 to m - 1 do
    for i1 = 0 to n - 1 do
      for i2 = i1 + 1 to n - 1 do
        cls := [ -(v i1 j); -(v i2 j) ] :: !cls
      done
    done
  done;
  !cls

let php n m = Th.formula_of (php_clauses n m)

let grow_after_sat () =
  (* SAT, then added clauses flip the verdict to UNSAT *)
  let s = S.of_formula (Th.formula_of [ [ 1; 2 ]; [ -1; 2 ] ]) in
  Alcotest.(check bool) "initially sat" true (Th.outcome_sat (S.solve s));
  Alcotest.(check bool) "model cached" true (S.model s <> None);
  S.add_clause s [ Th.lit 1; Th.lit (-2) ];
  Alcotest.(check bool) "cached model invalidated" true (S.model s = None);
  Alcotest.(check bool) "still sat" true (Th.outcome_sat (S.solve s));
  S.add_clause s [ Th.lit (-1); Th.lit (-2) ];
  (match S.solve s with
   | T.Unsat -> ()
   | _ -> Alcotest.fail "expected UNSAT after growth");
  (* the session stays usable even at UNSAT: re-solving agrees *)
  match S.solve s with
  | T.Unsat -> ()
  | _ -> Alcotest.fail "UNSAT must be stable"

let models_satisfy_growing_formula () =
  let rng = Sat.Rng.create 99 in
  let f = Th.random_cnf rng 12 20 4 in
  let s = S.of_formula f in
  let clauses = ref [] in
  Cnf.Formula.iter_clauses f (fun c -> clauses := Cnf.Clause.to_list c :: !clauses);
  let check_model () =
    match S.solve s with
    | T.Sat m ->
      List.iter
        (fun cl ->
           let sat =
             List.exists
               (fun l ->
                  let v = m.(Lit.var l) in
                  if Lit.is_pos l then v else not v)
               cl
           in
           Alcotest.(check bool) "clause satisfied" true sat)
        !clauses;
      true
    | T.Unsat | T.Unsat_assuming _ -> false
    | T.Unknown why -> Alcotest.fail why
  in
  let continue = ref (check_model ()) in
  for _ = 1 to 10 do
    if !continue then begin
      let len = 2 + Sat.Rng.int rng 3 in
      let cl =
        List.init len (fun _ ->
            Lit.of_var (Sat.Rng.int rng 12) (Sat.Rng.bool rng))
      in
      S.add_clause s cl;
      clauses := cl :: !clauses;
      continue := check_model ()
    end
  done

let activation_groups () =
  (* x alone; group A forces ~x, group B forces x *)
  let s = S.create () in
  let x = Lit.pos (S.new_var s) in
  let a = S.new_activation s in
  let b = S.new_activation s in
  S.add_clause_in s ~group:a [ Lit.negate x ];
  S.add_clause_in s ~group:b [ x ];
  Alcotest.(check bool) "a active" true (S.is_active s a);
  (* both groups on: contradiction *)
  (match S.solve ~assumptions:[ a; b ] s with
   | T.Unsat_assuming core ->
     Alcotest.(check bool) "core non-empty" true (core <> [])
   | T.Unsat -> ()
   | _ -> Alcotest.fail "expected UNSAT under both groups");
  (* only group a: satisfiable with ~x *)
  (match S.solve ~assumptions:[ a ] s with
   | T.Sat m ->
     Alcotest.(check bool) "group a forces ~x" false (m.(Lit.var x))
   | _ -> Alcotest.fail "expected SAT under group a");
  (* release a: its clause must stop constraining even when b is on *)
  S.release s a;
  Alcotest.(check bool) "a released" false (S.is_active s a);
  (match S.solve ~assumptions:[ b ] s with
   | T.Sat m -> Alcotest.(check bool) "group b forces x" true (m.(Lit.var x))
   | _ -> Alcotest.fail "expected SAT under group b after release");
  (* double release is a no-op; releasing a non-activation raises *)
  S.release s a;
  (match S.release s x with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "release of plain literal must raise")

let released_group_flips_to_unsat () =
  (* permanent clause [a] plus releasing a (unit ~a) is a contradiction:
     adding clauses between solves can flip SAT to UNSAT *)
  let s = S.create () in
  let a = S.new_activation s in
  S.add_clause s [ a ];
  Alcotest.(check bool) "sat with a on" true (Th.outcome_sat (S.solve s));
  S.release s a;
  match S.solve s with
  | T.Unsat -> ()
  | _ -> Alcotest.fail "expected UNSAT after releasing a pinned group"

let failure_cores_survive_reuse () =
  let s = S.of_formula (Th.formula_of [ [ 1; 2 ]; [ -1; 2 ]; [ -3; -2 ] ]) in
  let check_core () =
    match S.solve ~assumptions:[ Th.lit 3; Th.lit (-2) ] s with
    | T.Unsat_assuming core ->
      Alcotest.(check bool) "core subset of assumptions" true
        (List.for_all
           (fun l -> Lit.equal l (Th.lit 3) || Lit.equal l (Th.lit (-2)))
           core);
      Alcotest.(check bool) "core non-empty" true (core <> [])
    | T.Unsat -> Alcotest.fail "expected assumption failure, not plain UNSAT"
    | _ -> Alcotest.fail "expected UNSAT under assumptions"
  in
  check_core ();
  Alcotest.(check bool) "sat without assumptions" true
    (Th.outcome_sat (S.solve s));
  (* same failing query again after an unrelated successful one *)
  check_core ()

let budget_does_not_poison () =
  let s = S.of_formula (php 7 6) in
  (match S.solve ~max_conflicts:0 s with
   | T.Unknown _ -> ()
   | T.Unsat -> Alcotest.fail "php 7 6 cannot be refuted in 0 conflicts"
   | _ -> Alcotest.fail "expected budget Unknown");
  (* an exhausted budget must not leak into the next query *)
  (match S.solve s with
   | T.Unsat -> ()
   | _ -> Alcotest.fail "expected UNSAT once unbudgeted");
  (* and a later budgeted query starts from a fresh allowance *)
  match S.solve ~max_decisions:0 (S.of_formula (php 7 6)) with
  | T.Unknown _ | T.Unsat -> ()
  | _ -> Alcotest.fail "decision budget ignored"

let per_call_deltas_disjoint () =
  let s = S.of_formula (php 6 5) in
  ignore (S.solve s);
  let d1 = S.last_stats s in
  let c1 = S.cumulative_stats s in
  ignore (S.solve s);
  let d2 = S.last_stats s in
  let c2 = S.cumulative_stats s in
  Alcotest.(check bool) "first call works" true (d1.T.conflicts > 0);
  (* deltas are disjoint: they sum to the cumulative difference *)
  Alcotest.(check int) "conflicts partition"
    c2.T.conflicts (c1.T.conflicts + d2.T.conflicts);
  Alcotest.(check int) "decisions partition"
    c2.T.decisions (c1.T.decisions + d2.T.decisions);
  Alcotest.(check int) "queries counted" 2 (S.queries s);
  (* copy/diff helpers compose *)
  let snap = T.copy_stats c2 in
  ignore (S.solve s);
  let d3 = T.diff_stats (S.cumulative_stats s) snap in
  Alcotest.(check int) "diff matches last delta"
    (S.last_stats s).T.conflicts d3.T.conflicts

let released_groups_pruned () =
  (* php 6 5 with pigeon 0's "some hole" clause moved into a fresh group
     each round: UNSAT under the group, SAT once it is released *)
  let pigeon0 = [ 1; 2; 3; 4; 5 ] in
  let s =
    S.of_formula
      (Th.formula_of (List.filter (( <> ) pigeon0) (php_clauses 6 5)))
  in
  let pigeon0 = List.map Th.lit pigeon0 in
  let mentions vars =
    List.exists
      (fun c -> List.exists (fun l -> List.mem (Lit.var l) vars)
          (Cnf.Clause.to_list c))
      (Sat.Cdcl.learned_clauses (S.raw s))
  in
  let released = ref [] in
  for _ = 1 to 3 do
    let act = S.new_activation s in
    S.add_clause_in s ~group:act pigeon0;
    (match S.solve ~assumptions:[ act ] s with
     | T.Unsat | T.Unsat_assuming _ -> ()
     | _ -> Alcotest.fail "php 6 5 must be UNSAT under its group");
    Alcotest.(check bool) "learned clauses mention the live group" true
      (mentions [ Lit.var act ]);
    S.release s act;
    released := Lit.var act :: !released;
    (match S.solve s with
     | T.Sat _ -> ()
     | _ -> Alcotest.fail "five pigeons fit five holes once released");
    Alcotest.(check bool) "released-group learnts pruned" false
      (mentions !released)
  done;
  S.add_clause s pigeon0;
  match S.solve s with
  | T.Unsat -> ()
  | _ -> Alcotest.fail "php 6 5 must be UNSAT once the clause is permanent"

(* --- stop tokens and deadlines (the SAT-service contract) ------------------ *)

let expect what want o =
  if o <> T.Unknown want then
    Alcotest.failf "%s: expected %s, got %a" what want T.pp_outcome o

let cross_domain_interrupt_keeps_session_reusable () =
  (* a service worker solves; the event loop sets the query's token from
     another domain *)
  let s = S.of_formula (php 10 9) in
  let stop = Atomic.make false in
  let canceller =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Atomic.set stop true)
  in
  expect "mid-search stop" "interrupted" (S.solve ~stop s);
  Domain.join canceller;
  Alcotest.(check bool) "the solver never clears the token" true
    (Atomic.get stop);
  Alcotest.(check int) "stop counted" 1 (S.last_stats s).T.interrupts;
  (* the session survives into the pool: growth + a fresh query work *)
  S.add_clause s [ Th.lit 1 ];
  S.add_clause s [ Th.lit (-1) ];
  match S.solve s with
  | T.Unsat -> ()
  | o -> Alcotest.failf "expected unsat after reuse, got %a" T.pp_outcome o

let interrupt_storm_single_query () =
  (* many domains racing to set one token: the query stops once, the
     set token stops every later call at once, and a fresh token gives
     the same session its exact answers back *)
  let s = S.of_formula (php 10 9) in
  let stop = Atomic.make false in
  let cancellers =
    Array.init 8 (fun _ ->
        Domain.spawn (fun () ->
            Unix.sleepf 0.02;
            for _ = 1 to 100 do
              Atomic.set stop true
            done))
  in
  expect "stormed query" "interrupted" (S.solve ~stop s);
  Array.iter Domain.join cancellers;
  expect "token still set" "interrupted" (S.solve ~stop s);
  Alcotest.(check int) "stopped at entry" 0 (S.last_stats s).T.conflicts;
  let fresh = Atomic.make false in
  expect "budget with an unset token" "budget"
    (S.solve ~stop:fresh ~max_conflicts:5 s);
  (* two pigeons in hole 0: refuted under an unset token *)
  let v i j = (i * 9) + j + 1 in
  match S.solve ~stop:fresh ~assumptions:[ Th.lit (v 0 0); Th.lit (v 1 0) ] s with
  | T.Unsat_assuming _ -> ()
  | o -> Alcotest.failf "stormed session unusable: %a" T.pp_outcome o

let preset_token_returns_at_once () =
  (* a token set before the call stops it before any search; the
     session answers normally once the caller stops passing it *)
  let s = S.of_formula (Th.formula_of [ [ 1; 2 ]; [ -1; 2 ] ]) in
  expect "preset token" "interrupted" (S.solve ~stop:(Atomic.make true) s);
  let d = S.last_stats s in
  Alcotest.(check int) "no conflicts" 0 d.T.conflicts;
  Alcotest.(check int) "no decisions" 0 d.T.decisions;
  Alcotest.(check int) "counted" 1 d.T.interrupts;
  match S.solve ~stop:(Atomic.make false) s with
  | T.Sat _ -> ()
  | o -> Alcotest.failf "expected sat with an unset token, got %a" T.pp_outcome o

let past_deadline_times_out_at_entry () =
  let s = S.of_formula (php 8 7) in
  expect "past deadline" "timeout"
    (S.solve ~deadline:(Sat.Monotime.now_s () -. 1.) s);
  let d = S.last_stats s in
  Alcotest.(check int) "no conflicts" 0 d.T.conflicts;
  Alcotest.(check int) "counted" 1 d.T.interrupts;
  (* a far deadline lets the same session finish exactly *)
  match S.solve ~deadline:(Sat.Monotime.now_s () +. 3600.) s with
  | T.Unsat -> ()
  | o -> Alcotest.failf "expected unsat, got %a" T.pp_outcome o

let timeout_then_interrupt_sequence () =
  (* the scheduler's Unknown flavours compose on one session *)
  let s = S.of_formula (php 10 9) in
  expect "budget" "budget" (S.solve ~max_conflicts:5 s);
  expect "deadline mid-search" "timeout"
    (S.solve ~deadline:(Sat.Monotime.now_s () +. 0.05) s);
  Alcotest.(check bool) "searched before the deadline" true
    ((S.last_stats s).T.conflicts > 0);
  let stop = Atomic.make false in
  let canceller =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Atomic.set stop true)
  in
  expect "stop token" "interrupted" (S.solve ~stop s);
  Domain.join canceller;
  Alcotest.(check int) "timeout and stop counted" 2
    (S.cumulative_stats s).T.interrupts;
  (* budgets are still enforced after the timeout and the stop *)
  expect "budget after" "budget" (S.solve ~max_conflicts:5 s);
  expect "decision budget after" "budget" (S.solve ~max_decisions:0 s)

let minimize_assumptions_shrinks () =
  (* x1 ∨ x2 forces one of them on: assuming both off is contradictory,
     and the third assumption is irrelevant noise *)
  let s = S.of_formula (Th.formula_of [ [ 1; 2 ] ]) in
  (match
     S.minimize_assumptions s [ Th.lit (-1); Th.lit (-2); Th.lit 3 ]
   with
   | Some core ->
     Alcotest.(check bool)
       "noise dropped, order preserved" true
       (core = [ Th.lit (-1); Th.lit (-2) ])
   | None -> Alcotest.fail "expected an UNSAT core");
  Alcotest.(check bool) "queries accounted" true (S.queries s > 1);
  (* satisfiable assumption sets yield no core *)
  (match S.minimize_assumptions s [ Th.lit 1; Th.lit 3 ] with
   | None -> ()
   | Some _ -> Alcotest.fail "SAT must give None");
  (* a formula UNSAT on its own needs no assumptions at all *)
  let s2 = S.of_formula (Th.formula_of [ [ 1 ]; [ -1 ] ]) in
  match S.minimize_assumptions s2 [ Th.lit 2 ] with
  | Some [] -> ()
  | Some _ -> Alcotest.fail "core of an UNSAT formula must be empty"
  | None -> Alcotest.fail "expected Some []"

let minimize_assumptions_php () =
  (* php(3,3) is satisfiable, but forcing pigeons 0 and 1 both into
     hole 0 is contradictory; the third assumption is harmless *)
  let s = S.of_formula (php 3 3) in
  let v i j = (i * 3) + j + 1 in
  let asms = [ Th.lit (v 0 0); Th.lit (v 1 0); Th.lit (v 2 1) ] in
  match S.minimize_assumptions s asms with
  | Some core ->
    Alcotest.(check bool) "two pigeons, one hole" true
      (core = [ Th.lit (v 0 0); Th.lit (v 1 0) ])
  | None -> Alcotest.fail "expected an UNSAT core"

let suite =
  [
    Th.case "grow after sat" grow_after_sat;
    Th.case "models satisfy growing formula" models_satisfy_growing_formula;
    Th.case "activation groups" activation_groups;
    Th.case "released group flips to unsat" released_group_flips_to_unsat;
    Th.case "failure cores survive reuse" failure_cores_survive_reuse;
    Th.case "budget does not poison" budget_does_not_poison;
    Th.case "per-call deltas disjoint" per_call_deltas_disjoint;
    Th.case "retention policies" released_groups_pruned;
    Th.case "cross-domain interrupt keeps session reusable"
      cross_domain_interrupt_keeps_session_reusable;
    Th.case "interrupt storm, single query" interrupt_storm_single_query;
    Th.case "preset stop token returns at once" preset_token_returns_at_once;
    Th.case "past deadline times out at entry" past_deadline_times_out_at_entry;
    Th.case "timeout then interrupt sequence" timeout_then_interrupt_sequence;
    Th.case "minimize assumptions" minimize_assumptions_shrinks;
    Th.case "minimize assumptions php" minimize_assumptions_php;
  ]
