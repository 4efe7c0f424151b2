(* Parallel portfolio solving (Sat.Portfolio) and the core hooks it is
   built on: the stop token, the learn hook, level-0 clause
   import, and the jobs=1 sequential-path guarantee. *)

module T = Sat.Types
module P = Sat.Portfolio

let php n m =
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
  Th.formula_of !cls

(* random 3-CNF straddling the phase transition (clause/var ratio around
   4.26), like the hard-instance families of Sec. 6 *)
let random_3cnf ~seed ~nvars ~ratio =
  let rng = Sat.Rng.create seed in
  let f = Cnf.Formula.create ~nvars () in
  let nclauses = int_of_float (float_of_int nvars *. ratio) in
  for _ = 1 to nclauses do
    let rec distinct acc n =
      if n = 0 then acc
      else
        let v = Sat.Rng.int rng nvars in
        if List.mem v acc then distinct acc n else distinct (v :: acc) (n - 1)
    in
    Cnf.Formula.add_clause_l f
      (List.map
         (fun v -> Cnf.Lit.of_var v (Sat.Rng.bool rng))
         (distinct [] 3))
  done;
  f

let opts ?(jobs = 4) ?(share = true) () =
  {
    P.jobs;
    config = T.default;
    sharing = { P.default_sharing with P.share };
  }

(* --- core hooks ----------------------------------------------------------- *)

let interrupt_leaves_solver_reusable () =
  let s = Sat.Cdcl.create (php 7 6) in
  (* set the token from inside the search, through the learn hook *)
  let stop = Atomic.make false in
  let learns = ref 0 in
  Sat.Cdcl.set_learn_hook s
    (Some (fun _ _ ->
         incr learns;
         if !learns = 5 then Atomic.set stop true));
  (match Sat.Cdcl.solve ~stop s with
   | T.Unknown "interrupted" -> ()
   | o -> Alcotest.failf "expected interrupted, got %a" T.pp_outcome o);
  Alcotest.(check int) "stop counted" 1 (Sat.Cdcl.stats s).T.interrupts;
  Alcotest.(check int) "stopped right after the learn" 5
    (Sat.Cdcl.stats s).T.conflicts;
  Alcotest.(check bool) "token left set" true (Atomic.get stop);
  Alcotest.(check int) "level 0" 0 (Sat.Cdcl.decision_level s);
  (* without the token the same solver finishes the job *)
  Sat.Cdcl.set_learn_hook s None;
  (match Sat.Cdcl.solve s with
   | T.Unsat -> ()
   | o -> Alcotest.failf "expected unsat after resume, got %a" T.pp_outcome o)

let learn_hook_fires_once_per_clause () =
  let s = Sat.Cdcl.create (php 6 5) in
  let seen = ref [] in
  Sat.Cdcl.set_learn_hook s (Some (fun lits lbd -> seen := (lits, lbd) :: !seen));
  (match Sat.Cdcl.solve s with
   | T.Unsat -> ()
   | o -> Alcotest.failf "expected unsat, got %a" T.pp_outcome o);
  Alcotest.(check int) "one callback per learned clause"
    (Sat.Cdcl.stats s).T.learned (List.length !seen);
  List.iter
    (fun (lits, lbd) ->
       let len = List.length lits in
       Alcotest.(check bool) "lbd consistent with clause size" true
         (lbd >= 1 && lbd <= max 1 len))
    !seen

let import_respects_level0_and_locking () =
  let f = Cnf.Formula.create ~nvars:2 () in
  let s = Sat.Cdcl.create f in
  (* import x∨y, then the unit ¬y: propagation makes the imported binary
     clause the reason for x, i.e. locked *)
  Sat.Cdcl.import_clause s [ Th.lit 1; Th.lit 2 ];
  Sat.Cdcl.import_clause s [ Th.lit (-2) ];
  Alcotest.(check int) "both imports counted" 2 (Sat.Cdcl.stats s).T.imported;
  Alcotest.(check int) "x forced true" 1 (Sat.Cdcl.value_var s 0);
  (* a keep-nothing retention pass must not delete the locked reason *)
  Sat.Cdcl.prune_learnts s ~keep:(fun ~lbd:_ ~size:_ ~lits:_ -> false);
  Alcotest.(check int) "locked import survives" 1
    (List.length (Sat.Cdcl.learned_clauses s));
  match Sat.Cdcl.solve s with
  | T.Sat m ->
    Alcotest.(check bool) "model has x" true m.(0);
    Alcotest.(check bool) "model has ¬y" false m.(1)
  | o -> Alcotest.failf "expected sat, got %a" T.pp_outcome o

let import_implicates_keep_outcomes () =
  (* clauses learned by one solver are sound imports for another solver
     of the same formula *)
  let f = php 6 5 in
  let teacher = Sat.Cdcl.create f in
  let exported = ref [] in
  Sat.Cdcl.set_learn_hook teacher
    (Some (fun lits lbd -> if lbd <= 6 then exported := (lits, lbd) :: !exported));
  (match Sat.Cdcl.solve teacher with
   | T.Unsat -> ()
   | o -> Alcotest.failf "teacher: expected unsat, got %a" T.pp_outcome o);
  Alcotest.(check bool) "teacher exported something" true (!exported <> []);
  let student = Sat.Cdcl.create f in
  List.iter (fun (lits, lbd) -> Sat.Cdcl.import_clause ~lbd student lits)
    !exported;
  match Sat.Cdcl.solve student with
  | T.Unsat -> ()
  | o -> Alcotest.failf "student: expected unsat, got %a" T.pp_outcome o

(* --- the portfolio --------------------------------------------------------- *)

let jobs1_is_the_sequential_solver () =
  let mk () = random_3cnf ~seed:42 ~nvars:40 ~ratio:4.2 in
  let s = Sat.Cdcl.create ~config:T.default (mk ()) in
  let seq_outcome = Sat.Cdcl.solve s in
  let r = P.solve ~options:(opts ~jobs:1 ()) (mk ()) in
  (match (seq_outcome, r.P.outcome) with
   | T.Sat a, T.Sat b ->
     Alcotest.(check bool) "same model" true (a = b)
   | T.Unsat, T.Unsat -> ()
   | _ -> Alcotest.fail "jobs=1 diverged from the sequential solver");
  Alcotest.(check bool) "same stats, field for field" true
    (Sat.Cdcl.stats s = r.P.per_worker.(0).P.worker_stats)

let portfolio_unsat_with_sharing () =
  let r = P.solve ~options:(opts ~jobs:4 ()) (php 7 6) in
  (match r.P.outcome with
   | T.Unsat -> ()
   | o -> Alcotest.failf "expected unsat, got %a" T.pp_outcome o);
  Alcotest.(check bool) "has a winner" true (r.P.winner <> None);
  Alcotest.(check int) "all workers reported" 4 (Array.length r.P.per_worker)

let portfolio_timeout_no_deadlock () =
  let t0 = Unix.gettimeofday () in
  let r = P.solve ~deadline:(Th.within 0.1) ~options:(opts ~jobs:2 ()) (php 10 9) in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match r.P.outcome with
   | T.Unknown "timeout" -> ()
   | o -> Alcotest.failf "expected timeout, got %a" T.pp_outcome o);
  Alcotest.(check bool) "returned promptly (no deadlock)" true (elapsed < 10.);
  Alcotest.(check bool) "workers interrupted" true (r.P.stats.T.interrupts >= 1)

(* ≥200 random 3-CNF instances straddling the phase transition:
   portfolio (jobs=4, sharing on) agrees with the certified sequential
   solver; every SAT model is evaluated against the formula, every
   UNSAT answer is cross-checked by the RUP proof checker. *)
let property_portfolio_agrees_with_certified () =
  let disagreements = ref 0 in
  for seed = 1 to 200 do
    let nvars = 20 + (seed mod 11) in
    let ratio = 3.8 +. (0.1 *. float_of_int (seed mod 10)) in
    let f = random_3cnf ~seed ~nvars ~ratio in
    let r = P.solve ~options:(opts ~jobs:4 ()) f in
    let certified, verdict = Sat.Proof.solve_certified f in
    (match (r.P.outcome, certified) with
     | T.Sat m, T.Sat _ ->
       if not (Cnf.Formula.eval (fun v -> v < Array.length m && m.(v)) f) then begin
         incr disagreements;
         Printf.printf "seed %d: portfolio model does not satisfy\n" seed
       end
     | T.Unsat, T.Unsat ->
       if verdict <> Sat.Proof.Valid_refutation then begin
         incr disagreements;
         Printf.printf "seed %d: refutation not certified\n" seed
       end
     | o, c ->
       incr disagreements;
       Format.printf "seed %d: portfolio %a vs certified %a@." seed
         T.pp_outcome o T.pp_outcome c)
  done;
  Alcotest.(check int) "portfolio agrees with certified solver on 200 instances"
    0 !disagreements

let repeated_timeouts_under_concurrent_cancellation () =
  (* a service under cancellation pressure runs many portfolios back to
     back, each cut short; none may deadlock, leak a domain, or poison
     the next round — and a final unbudgeted solve must still be exact *)
  for round = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    let r =
      P.solve ~deadline:(Th.within 0.05) ~options:(opts ~jobs:3 ()) (php 10 9)
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    (match r.P.outcome with
     | T.Unknown "timeout" -> ()
     | o -> Alcotest.failf "round %d: expected timeout, got %a" round
              T.pp_outcome o);
    Alcotest.(check bool) "prompt return" true (elapsed < 10.)
  done;
  match (P.solve ~options:(opts ~jobs:3 ()) (php 5 4)).P.outcome with
  | T.Unsat -> ()
  | o -> Alcotest.failf "portfolio poisoned by timeouts: %a" T.pp_outcome o

let sessions_cancelled_in_parallel () =
  (* N sessions each solving in its own domain, all reading one token —
     the shape of a daemon dropping a client with many in-flight
     queries *)
  let n = 8 in
  let sessions = Array.init n (fun _ -> Sat.Session.of_formula (php 10 9)) in
  let stop = Atomic.make false in
  let workers =
    Array.map
      (fun s -> Domain.spawn (fun () -> Sat.Session.solve ~stop s))
      sessions
  in
  Unix.sleepf 0.05;
  Atomic.set stop true;
  let outcomes = Array.map Domain.join workers in
  Array.iteri
    (fun i o ->
       match o with
       | T.Unknown "interrupted" -> ()
       | o -> Alcotest.failf "session %d: expected interrupted, got %a" i
                T.pp_outcome o)
    outcomes;
  (* every session returns to the pool reusable, nothing to clear *)
  Array.iter
    (fun s ->
       Sat.Session.add_clause s [ Th.lit 1 ];
       Sat.Session.add_clause s [ Th.lit (-1) ];
       match Sat.Session.solve s with
       | T.Unsat -> ()
       | o -> Alcotest.failf "cancelled session unusable: %a" T.pp_outcome o)
    sessions

let suite =
  [
    Th.case "interrupt leaves solver reusable" interrupt_leaves_solver_reusable;
    Th.case "learn hook fires once per clause" learn_hook_fires_once_per_clause;
    Th.case "import at level 0, locked survives prune"
      import_respects_level0_and_locking;
    Th.case "imported implicates preserve outcomes"
      import_implicates_keep_outcomes;
    Th.case "jobs=1 is the sequential solver" jobs1_is_the_sequential_solver;
    Th.case "portfolio unsat with sharing" portfolio_unsat_with_sharing;
    Th.case "portfolio timeout, no deadlock" portfolio_timeout_no_deadlock;
    Th.case "portfolio vs certified on 200 phase-transition instances"
      property_portfolio_agrees_with_certified;
    Th.case "repeated timeouts under concurrent cancellation"
      repeated_timeouts_under_concurrent_cancellation;
    Th.case "sessions cancelled in parallel" sessions_cancelled_in_parallel;
  ]
