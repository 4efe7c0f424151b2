module P = Sat.Proof

let certified_unsat () =
  let f =
    Th.formula_of [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ]; [ -1; -2 ] ]
  in
  match P.solve_certified f with
  | Sat.Types.Unsat, P.Valid_refutation -> ()
  | Sat.Types.Unsat, _ -> Alcotest.fail "UNSAT but proof did not certify"
  | _ -> Alcotest.fail "expected UNSAT"

let certified_pigeonhole () =
  let v i j = (i * 4) + j + 1 in
  let cls = ref [] in
  for i = 0 to 4 do
    cls := List.init 4 (fun j -> v i j) :: !cls
  done;
  for j = 0 to 3 do
    for i1 = 0 to 4 do
      for i2 = i1 + 1 to 4 do
        cls := [ -(v i1 j); -(v i2 j) ] :: !cls
      done
    done
  done;
  match P.solve_certified (Th.formula_of !cls) with
  | Sat.Types.Unsat, P.Valid_refutation -> ()
  | _ -> Alcotest.fail "php(5,4) must certify"

let sat_runs_give_valid_derivations () =
  let f = Th.formula_of [ [ 1; 2 ]; [ -1; 2 ]; [ 3; -2 ] ] in
  match P.solve_certified f with
  | Sat.Types.Sat _, (P.Valid_derivation | P.Valid_refutation) -> ()
  | Sat.Types.Sat _, P.Invalid_step i -> Alcotest.failf "invalid step %d" i
  | _ -> Alcotest.fail "expected SAT"

let corrupted_proof_rejected () =
  (* a clause that is not an implicate cannot be RUP *)
  let f = Th.formula_of [ [ 1; 2 ]; [ -1; 2 ] ] in
  let bogus = [ P.Add (Cnf.Clause.of_dimacs_list [ 1 ], [||]) ] in
  (match P.check f bogus with
   | P.Invalid_step 0 -> ()
   | _ -> Alcotest.fail "bogus step accepted");
  (* a valid step followed by a bogus one *)
  let mixed =
    [
      P.Add (Cnf.Clause.of_dimacs_list [ 2 ], [||]);
      P.Add (Cnf.Clause.of_dimacs_list [ -1 ], [||]);
    ]
  in
  match P.check f mixed with
  | P.Invalid_step 1 -> ()
  | _ -> Alcotest.fail "second step should fail"

let empty_proof_of_sat () =
  let f = Th.formula_of [ [ 1 ] ] in
  match P.check f [] with
  | P.Valid_derivation -> ()
  | _ -> Alcotest.fail "empty proof is a valid derivation"

let inconsistent_formula_trivially_refuted () =
  let f = Th.formula_of [ [ 1 ]; [ -1 ] ] in
  match P.check f [] with
  | P.Valid_refutation -> ()
  | _ -> Alcotest.fail "root conflict is already a refutation"

let prop_unsat_always_certifiable =
  QCheck.Test.make ~name:"every UNSAT run certifies" ~count:120
    QCheck.(int_bound 100_000)
    (fun seed ->
       let rng = Sat.Rng.create (seed + 51) in
       let f =
         Th.random_cnf rng (4 + Sat.Rng.int rng 8) (10 + Sat.Rng.int rng 40) 3
       in
       match P.solve_certified f with
       | Sat.Types.Unsat, v -> v = P.Valid_refutation
       | Sat.Types.Sat m, v ->
         Cnf.Formula.eval (fun x -> m.(x)) f
         && (match v with
             | P.Valid_derivation | P.Valid_refutation -> true
             | P.Invalid_step _ -> false)
       | (Sat.Types.Unsat_assuming _ | Sat.Types.Unknown _), _ -> false)

let prop_deletion_policies_still_certify =
  QCheck.Test.make ~name:"proofs survive clause deletion" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
       let rng = Sat.Rng.create (seed + 61) in
       let f = Th.random_cnf rng 9 45 3 in
       let config =
         { Sat.Types.default with Sat.Types.deletion = Sat.Types.Size_bounded 3 }
       in
       match P.solve_certified ~config f with
       | Sat.Types.Unsat, v -> v = P.Valid_refutation
       | Sat.Types.Sat _, P.Invalid_step _ -> false
       | _ -> true)

(* --- DRAT with deletions, trimming, cores ------------------------------- *)

let proof_config =
  { Sat.Types.default with
    Sat.Types.proof_logging = true;
    deletion = Sat.Types.Size_bounded 3 }

let unsat_proof f =
  let s = Sat.Cdcl.create ~config:proof_config f in
  match Sat.Cdcl.solve s with
  | Sat.Types.Unsat -> Sat.Cdcl.proof s
  | _ -> Alcotest.fail "expected UNSAT"

let php n =
  (* php(n, n-1): minimally unsatisfiable *)
  let holes = n - 1 in
  let v i j = (i * holes) + j + 1 in
  let cls = ref [] in
  for i = 0 to n - 1 do
    cls := List.init holes (fun j -> v i j) :: !cls
  done;
  for j = 0 to holes - 1 do
    for i1 = 0 to n - 1 do
      for i2 = i1 + 1 to n - 1 do
        cls := [ -(v i1 j); -(v i2 j) ] :: !cls
      done
    done
  done;
  Th.formula_of !cls

let trim_emits_checkable_lrat () =
  let f = php 4 in
  let steps = unsat_proof f in
  match P.trim f steps with
  | P.Trimmed { lines; kept_adds; total_adds; _ } ->
    Alcotest.(check bool) "trim keeps at most everything" true
      (kept_adds <= total_adds);
    (match P.check_lrat f lines with
     | Ok () -> ()
     | Error e -> Alcotest.failf "trimmed LRAT rejected: %s" e);
    (* the trimmed additions alone are still a valid DRAT refutation *)
    let trimmed =
      List.map (fun (ln : P.lrat_line) -> P.Add (ln.lits, [||])) lines
    in
    (match P.check f trimmed with
     | P.Valid_refutation -> ()
     | _ -> Alcotest.fail "trimmed proof no longer checks")
  | P.Not_refutation -> Alcotest.fail "trim: not a refutation"
  | P.Trim_invalid i -> Alcotest.failf "trim: invalid step %d" i

let unsat_core_smoke () =
  let f = Th.formula_of [ [ 1 ]; [ -1 ]; [ 2; 3 ] ] in
  let steps = unsat_proof f in
  match P.trim f steps with
  | P.Trimmed { core; _ } ->
    Alcotest.(check (list int)) "core is the contradictory pair" [ 1; 2 ] core;
    (* the core refutes on its own, and is minimal: dropping either
       clause loses unsatisfiability *)
    (match Th.solve_cdcl (P.core_formula f core) with
     | Sat.Types.Unsat -> ()
     | _ -> Alcotest.fail "core should be UNSAT");
    List.iter
      (fun drop ->
        let rest = List.filter (fun id -> id <> drop) core in
        match Th.solve_cdcl (P.core_formula f rest) with
        | Sat.Types.Sat _ -> ()
        | _ -> Alcotest.fail "core minus one clause should be SAT")
      core
  | _ -> Alcotest.fail "trim failed"

let pigeonhole_core_is_everything () =
  (* minimally unsatisfiable: a valid refutation must use every clause *)
  let f = php 4 in
  let steps = unsat_proof f in
  match P.trim f steps with
  | P.Trimmed { core; _ } ->
    Alcotest.(check int) "core covers every clause"
      (Cnf.Formula.nclauses f) (List.length core)
  | _ -> Alcotest.fail "trim failed"

let deletions_parse_and_print () =
  let c l = Cnf.Clause.of_dimacs_list l in
  let steps =
    [ P.Add (c [ 1; -2 ], [||]); P.Delete (c [ 3; 2; -1 ]); P.Add (c [], [||]) ]
  in
  Alcotest.(check bool) "drat text roundtrip" true
    (P.parse_drat (P.drat_to_string steps) = steps);
  let lines =
    [
      { P.id = 4; lits = c [ 1 ]; hints = [| 1; 3 |] };
      { P.id = 5; lits = c []; hints = [| 4; 2 |] };
    ]
  in
  Alcotest.(check bool) "lrat text roundtrip" true
    (P.parse_lrat (P.lrat_to_string lines) = lines)

let pures_incompatible_with_proof () =
  let f = Th.formula_of [ [ 1; 2 ] ] in
  match Sat.Preprocess.run ~pures:true ~proof:(fun _ -> ()) f with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* The preprocessor's DRAT stream checks on its own: a refutation by unit
   propagation, and circuit miters on which subsumption, strengthening
   and elimination all fire.  The miters' outputs must also be at a
   fixpoint; random CNFs rarely reach the forward-subsumption path. *)
let preprocess_refutation_is_self_contained () =
  let module G = Circuit.Generators in
  let miter a b = fst (Circuit.Miter.to_cnf a b) in
  let either = [ P.Valid_refutation; P.Valid_derivation ] in
  List.iter
    (fun (name, f, expected) ->
       let steps = ref [] in
       (match Sat.Preprocess.run ~proof:(fun s -> steps := s :: !steps) f with
        | Sat.Preprocess.Simplified s when not (Test_preprocess.at_fixpoint s)
          ->
          Alcotest.failf "%s: the output is not at a fixpoint" name
        | _ -> ());
       if not (List.mem (P.check f (List.rev !steps)) expected) then
         Alcotest.failf "%s: the preprocessor's proof does not check" name)
    [
      ( "units",
        Th.formula_of [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ]; [ -3 ]; [ 4; 5 ] ],
        [ P.Valid_refutation ] );
      ( "barrel8",
        miter (G.barrel_shifter ~bits:8) (G.barrel_shifter ~bits:8),
        either );
      ( "ripple-vs-kogge8",
        miter (G.ripple_adder ~bits:8) (G.kogge_stone_adder ~bits:8),
        either );
      ( "mult4-xor",
        (let m = G.multiplier ~bits:4 in
         miter m (Circuit.Transform.rewrite_xor m)),
        either );
    ]

(* --- Trimmer edge cases: the root closure and the hint rules ----------- *)

(* [steps] must forward-check, trim, keep every clause of [kept] and
   replay through the LRAT checker *)
let trims_and_replays f steps ~kept =
  (match P.check f steps with
   | P.Valid_refutation -> ()
   | _ -> Alcotest.fail "the stream does not forward-check");
  match P.trim f steps with
  | P.Trimmed { lines; _ } ->
    List.iter
      (fun c ->
        let c = Cnf.Clause.of_dimacs_list c in
        if
          not
            (List.exists
               (fun (ln : P.lrat_line) -> Cnf.Clause.equal ln.lits c)
               lines)
        then Alcotest.failf "%s was trimmed" (Cnf.Clause.to_string c))
      kept;
    (match P.check_lrat f lines with
     | Ok () -> ()
     | Error e -> Alcotest.failf "trimmed LRAT rejected: %s" e)
  | P.Not_refutation -> Alcotest.fail "trim: not a refutation"
  | P.Trim_invalid i -> Alcotest.failf "trim: invalid step %d" i

let add l = P.Add (Cnf.Clause.of_dimacs_list l, [||])
let del l = P.Delete (Cnf.Clause.of_dimacs_list l)

(* the backward pass checks (1 2) while both its literals are true at
   root, 2 first on the trail: the reason of 1 contains -2, which the
   negation of the clause makes true, so only the reason of 2 is a
   valid conflict.  The root is in conflict too, but its hints contain
   -1 and would read as satisfied. *)
let kept_clause_true_at_root () =
  let f = Th.formula_of [ [ 2 ]; [ -2; 1 ]; [ -1; 3 ]; [ -1; -3 ] ] in
  trims_and_replays f [ add [ 1; 2 ]; del [ 2 ]; add [ 1 ] ] ~kept:[ [ 1; 2 ] ]

(* the first copy of the unit (1) is deleted, re-added later, and its
   reactivation in the backward pass puts the root in conflict *)
let unit_deleted_and_re_added () =
  let f =
    Th.formula_of
      [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 3 ]; [ -3; 4; 5 ]; [ -3; 4; -5 ];
        [ -3; -4; 5 ]; [ -3; -4; -5 ] ]
  in
  trims_and_replays f
    [ add [ 1 ]; add [ -3; 4 ]; del [ 1 ]; add [ 1 ]; add [ 4 ] ]
    ~kept:[ [ 1 ]; [ -3; 4 ]; [ 4 ] ]

(* (-1 2) is the root reason of 2 when it is deleted; the backward pass
   reactivates it under a conflicting root, and the check of (2) then
   needs it again *)
let root_reason_deleted_and_reactivated () =
  let f = Th.formula_of [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ]; [ -3; -1 ] ] in
  trims_and_replays f [ add [ 2 ]; del [ -1; 2 ]; add [ 3 ] ]
    ~kept:[ [ 2 ]; [ 3 ] ]

(* in the backward pass (-1 2) is re-attached over a conflict-free
   closure holding 1 and 3: it is unit there and extends the closure
   with 2, which the check of (3) then starts from *)
let reattached_clause_unit_at_root () =
  let f =
    Th.formula_of
      [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ]; [ -3; 4; 5 ]; [ -3; 4; -5 ];
        [ -3; -4; 5 ]; [ -3; -4; -5 ] ]
  in
  trims_and_replays f
    [ add [ 3 ]; del [ -1; 2 ]; add [ -3; 4 ]; add [ 4 ] ]
    ~kept:[ [ 3 ]; [ -3; 4 ]; [ 4 ] ]

(* the 300-instance corpus: the full Solver pipeline (BVE on, probing
   off, aggressive deletion on) on random 3-SAT *)
let corpus_report seed =
  let rng = Sat.Rng.create (seed + 71) in
  let f =
    Th.random_cnf rng (5 + Sat.Rng.int rng 9) (15 + Sat.Rng.int rng 45) 3
  in
  ( f,
    Sat.Solver.solve
      ~engine:(Sat.Solver.Cdcl proof_config)
      ~pipeline:Sat.Solver.full_pipeline f )

(* every UNSAT verdict's DRAT stream both forward-checks and
   backward-trims into a valid LRAT certificate *)
let prop_full_pipeline_drat =
  QCheck.Test.make
    ~name:"full-pipeline DRAT with deletions trims and checks" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let f, report = corpus_report seed in
      let steps = Option.value report.Sat.Solver.proof ~default:[] in
      match report.Sat.Solver.outcome with
      | Sat.Types.Unsat ->
        P.check f steps = P.Valid_refutation
        && (match P.trim f steps with
           | P.Trimmed { lines; kept_adds; total_adds; _ } ->
             kept_adds <= total_adds && P.check_lrat f lines = Ok ()
           | P.Not_refutation | P.Trim_invalid _ -> false)
      | Sat.Types.Sat m -> Cnf.Formula.eval (fun x -> m.(x)) f
      | Sat.Types.Unsat_assuming _ | Sat.Types.Unknown _ -> false)

(* The three perturbations of one proof: a duplicate addition of an
   active clause, deleted again later; a mid-stream deletion of an
   original clause; an addition with one literal dropped. *)
let perturbations rng f steps =
  let n = List.length steps in
  let originals = Cnf.Formula.clauses f in
  let insert_at i s steps =
    List.filteri (fun k _ -> k < i) steps
    @ (s :: List.filteri (fun k _ -> k >= i) steps)
  in
  (* content of every clause active just before step [i] *)
  let active_before i =
    let tbl = Hashtbl.create 64 in
    let bump c d =
      Hashtbl.replace tbl c (d + Option.value (Hashtbl.find_opt tbl c) ~default:0)
    in
    Array.iter (fun c -> bump c 1) originals;
    List.iteri
      (fun k s ->
        if k < i then
          match s with
          | P.Add (c, _) -> bump c 1
          | P.Delete c ->
            if Option.value (Hashtbl.find_opt tbl c) ~default:0 > 0 then
              bump c (-1))
      steps;
    Hashtbl.fold (fun c k acc -> if k > 0 then c :: acc else acc) tbl []
  in
  let duplicate =
    let i = Sat.Rng.int rng (n + 1) in
    match active_before i with
    | [] -> steps
    | live ->
      let c = List.nth live (Sat.Rng.int rng (List.length live)) in
      let j = i + 1 + Sat.Rng.int rng (n - i + 1) in
      insert_at j (P.Delete c) (insert_at i (P.Add (c, [||])) steps)
  in
  let delete_original =
    let c = originals.(Sat.Rng.int rng (Array.length originals)) in
    insert_at (Sat.Rng.int rng (n + 1)) (P.Delete c) steps
  in
  let drop_literal =
    let droppable = function
      | P.Add (c, _) -> Cnf.Clause.size c > 0
      | P.Delete _ -> false
    in
    let i = Sat.Rng.int rng (max 1 (List.length (List.filter droppable steps))) in
    let k = ref (-1) in
    List.map
      (fun s ->
        if droppable s then incr k;
        match s with
        | P.Add (c, hints) when !k = i && droppable s ->
          let lits = Cnf.Clause.to_list c in
          let drop = Sat.Rng.int rng (List.length lits) in
          P.Add
            ( Cnf.Clause.of_list (List.filteri (fun j _ -> j <> drop) lits),
              hints )
        | _ -> s)
      steps
  in
  [ duplicate; delete_original; drop_literal ]

(* perturbed streams: [trim] never raises, a trimmed certificate always
   replays, and whatever forward-checks as a refutation also trims *)
let prop_perturbed_proofs_trim_soundly =
  QCheck.Test.make ~name:"perturbed DRAT streams trim soundly" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let f, report = corpus_report seed in
      match (report.Sat.Solver.outcome, report.Sat.Solver.proof) with
      | Sat.Types.Unsat, Some steps ->
        let rng = Sat.Rng.create (seed + 83) in
        List.for_all
          (fun steps ->
            match P.trim f steps with
            | P.Trimmed { lines; _ } -> P.check_lrat f lines = Ok ()
            | P.Not_refutation | P.Trim_invalid _ ->
              P.check f steps <> P.Valid_refutation)
          (perturbations rng f steps)
      | _ -> true)


(* --- Solver hints ------------------------------------------------------- *)

(* the ids [trim] gives the additions of [steps] that carry hints *)
let hinted_ids f steps =
  let next = ref (Cnf.Formula.nclauses f) in
  List.fold_left
    (fun acc step ->
      match step with
      | P.Add (c, h)
        when not (Cnf.Clause.is_empty c || Cnf.Clause.is_tautology c) ->
        incr next;
        if Array.length h > 0 then !next :: acc else acc
      | P.Add _ | P.Delete _ -> acc)
    [] steps

(* every kept addition that carries hints was verified from them, and
   the certificate replays *)
let hints_all_hold f steps =
  match P.trim_hinted f steps with
  | P.Trimmed { lines; _ }, hinted ->
    let ids = hinted_ids f steps in
    let kept_hinted =
      List.length
        (List.filter (fun (ln : P.lrat_line) -> List.mem ln.id ids) lines)
    in
    hinted = kept_hinted && P.check_lrat f lines = Ok ()
  | (P.Not_refutation | P.Trim_invalid _), _ -> false

(* Without preprocessing every addition is a [Cdcl] lemma: each carries
   hints, and each kept one is verified from them with no RUP
   fallback, under both the default and the aggressive deletion
   policy. *)
let prop_solver_hints_need_no_fallback =
  QCheck.Test.make ~name:"solver lemmas verify from their own hints"
    ~count:120
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Sat.Rng.create (seed + 51) in
      let f =
        Th.random_cnf rng (4 + Sat.Rng.int rng 8) (10 + Sat.Rng.int rng 40) 3
      in
      List.for_all
        (fun config ->
          let s = Sat.Cdcl.create ~config f in
          match Sat.Cdcl.solve s with
          | Sat.Types.Unsat -> (
            let steps = Sat.Cdcl.proof s in
            List.for_all
              (function P.Add (_, h) -> Array.length h > 0 | P.Delete _ -> true)
              steps
            &&
            match P.trim_hinted f steps with
            | P.Trimmed { lines; kept_adds; _ }, hinted ->
              hinted = kept_adds && P.check_lrat f lines = Ok ()
            | (P.Not_refutation | P.Trim_invalid _), _ -> false)
          | _ -> true)
        [ { Sat.Types.default with Sat.Types.proof_logging = true };
          proof_config ])

(* Through the full pipeline the engine's hints are renumbered past the
   preprocessing steps; a wrong id would make some fall back. *)
let prop_pipeline_hints_hold =
  QCheck.Test.make ~name:"renumbered pipeline hints verify" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let f, report = corpus_report seed in
      match (report.Sat.Solver.outcome, report.Sat.Solver.proof) with
      | Sat.Types.Unsat, Some steps -> hints_all_hold f steps
      | _ -> true)

let circuit_pipeline_hints_hold () =
  let module G = Circuit.Generators in
  let m = G.multiplier ~bits:4 in
  List.iter
    (fun (name, f) ->
      let r =
        Sat.Solver.solve
          ~engine:(Sat.Solver.Cdcl proof_config)
          ~pipeline:Sat.Solver.full_pipeline f
      in
      let steps = Option.value r.Sat.Solver.proof ~default:[] in
      if hinted_ids f steps = [] then Alcotest.failf "%s: no hints" name;
      if not (hints_all_hold f steps) then
        Alcotest.failf "%s: a hinted step fell back" name)
    [ ("php6", php 6);
      ("mult4-xor", fst (Circuit.Miter.to_cnf m (Circuit.Transform.rewrite_xor m)))
    ]

(* Hints must carry the level-0 chains: here every php(5,4) clause
   holds -y, which [Cdcl] drops at load time because y is fixed by
   (x y) once (-x) has fixed x.  Random 3-SAT near the threshold and
   php(6,5) learn units mid-search. *)
let level0_chains_in_hints () =
  let x = 21 and y = 22 in
  let guarded =
    [ -x ] :: [ x; y ]
    :: List.map
         (fun c -> -y :: List.map Cnf.Lit.to_dimacs (Cnf.Clause.to_list c))
         (Array.to_list (Cnf.Formula.clauses (php 5)))
  in
  let rng = Sat.Rng.create 7 in
  List.iter
    (fun (name, f) ->
      let s = Sat.Cdcl.create ~config:proof_config f in
      match Sat.Cdcl.solve s with
      | Sat.Types.Unsat -> (
        match P.trim_hinted f (Sat.Cdcl.proof s) with
        | P.Trimmed { lines; kept_adds; _ }, hinted ->
          Alcotest.(check int) (name ^ ": kept lemmas from hints") kept_adds
            hinted;
          if P.check_lrat f lines <> Ok () then
            Alcotest.failf "%s: the certificate fails" name
        | _ -> Alcotest.failf "%s: trim failed" name)
      | _ -> ())
    (("guarded php5", Th.formula_of guarded)
    :: ("php6", php 6)
    :: List.init 6 (fun k ->
           ( Printf.sprintf "3sat-%d" k,
             Th.formula_of
               (List.init 185 (fun _ ->
                    List.init 3 (fun _ ->
                        let v = 1 + Sat.Rng.int rng 40 in
                        if Sat.Rng.bool rng then v else -v))) )))

(* A level-0 implication path of 3,000 variables that php(6,5) clauses
   reach through literals false at level 0: the hints still hold, and
   the cached chains stay linear in the path (one chain per variable
   along it would be about 4.5M words). *)
let level0_chains_stay_linear () =
  let len = 3000 in
  let v i j = len + (i * 5) + j + 1 in
  let path = [ 1 ] :: List.init (len - 1) (fun i -> [ -(i + 1); i + 2 ]) in
  let pigeons = List.init 6 (fun i -> -len :: List.init 5 (fun j -> v i j)) in
  let holes =
    List.concat
      (List.init 5 (fun j ->
           List.concat
             (List.init 6 (fun i1 ->
                  List.init (5 - i1) (fun k ->
                      let i2 = i1 + 1 + k in
                      [ -(v i1 j); -(v i2 j); -(len - (((7 * i1) + (13 * i2) + j) mod 1500)) ])))))
  in
  let f = Th.formula_of (path @ pigeons @ holes) in
  Gc.compact ();
  let before = (Gc.stat ()).Gc.live_words in
  let s = Sat.Cdcl.create ~config:proof_config f in
  (match Sat.Cdcl.solve s with
   | Sat.Types.Unsat -> ()
   | _ -> Alcotest.fail "expected UNSAT");
  Gc.compact ();
  let grown = (Gc.stat ()).Gc.live_words - before in
  if grown > 2_000_000 then
    Alcotest.failf "the solver holds %d words after the search" grown;
  match P.trim_hinted f (Sat.Cdcl.proof s) with
  | P.Trimmed { lines; kept_adds; _ }, hinted ->
    Alcotest.(check int) "kept lemmas from hints" kept_adds hinted;
    if P.check_lrat f lines <> Ok () then Alcotest.fail "the certificate fails"
  | _ -> Alcotest.fail "trim failed"

(* One hint of one hinted addition dropped, swapped with its neighbour
   or pointed at another clause: the step falls back to RUP, so the
   stream still trims, and the certificate replays. *)
let perturb_hint rng steps =
  let hinted =
    List.length
      (List.filter
         (function P.Add (_, h) -> Array.length h > 0 | P.Delete _ -> false)
         steps)
  in
  let pick = Sat.Rng.int rng (max 1 hinted) in
  let k = ref (-1) in
  List.map
    (function
      | P.Add (c, h) when Array.length h > 0 ->
        incr k;
        if !k <> pick then P.Add (c, h)
        else begin
          let n = Array.length h in
          let i = Sat.Rng.int rng n in
          let h' =
            match Sat.Rng.int rng 3 with
            | 0 -> Array.of_list (List.filteri (fun j _ -> j <> i) (Array.to_list h))
            | 1 ->
              let h' = Array.copy h in
              let j = (i + 1) mod n in
              h'.(i) <- h.(j);
              h'.(j) <- h.(i);
              h'
            | _ ->
              let h' = Array.copy h in
              h'.(i) <- 1 + Sat.Rng.int rng (max 1 (2 * h.(i)));
              h'
          in
          P.Add (c, h')
        end
      | step -> step)
    steps

let prop_perturbed_hints_trim_soundly =
  QCheck.Test.make ~name:"perturbed hints trim soundly" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let f, report = corpus_report seed in
      match (report.Sat.Solver.outcome, report.Sat.Solver.proof) with
      | Sat.Types.Unsat, Some steps -> (
        let rng = Sat.Rng.create (seed + 97) in
        match P.trim f (perturb_hint rng steps) with
        | P.Trimmed { lines; _ } -> P.check_lrat f lines = Ok ()
        | P.Not_refutation | P.Trim_invalid _ -> false)
      | _ -> true)

(* Hints never make a non-RUP lemma pass: forged ones fail their replay,
   and so do ones that replay only through a deleted clause. *)
let forged_hints_rejected () =
  let cl l = Cnf.Clause.of_dimacs_list l in
  let f = Th.formula_of [ [ 1; 2 ]; [ 1; -2 ] ] in
  (match P.trim f [ P.Add (cl [ -1 ], [| 1; 2 |]) ] with
   | P.Trim_invalid 0 -> ()
   | _ -> Alcotest.fail "a forged lemma trimmed");
  let f = Th.formula_of [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 3 ]; [ -1; -3 ] ] in
  let steps =
    [ P.Add (cl [ 1 ], [| 1; 2 |]); del [ 1; 2 ]; del [ 1; -2 ]; del [ 1 ];
      P.Add (cl [ 1 ], [| 5 |]) ]
  in
  (match P.check f steps with
   | P.Invalid_step 4 -> ()
   | _ -> Alcotest.fail "the forward check accepts the re-added unit");
  match P.trim f steps with
  | P.Trim_invalid 4 -> ()
  | _ -> Alcotest.fail "hints through a deleted clause were accepted"

(* The DRAT text of a fixed corpus through the full pipeline: the
   300-instance corpus's first 100 seeds, php(6,5) and two circuit
   miters.  The digest was recorded before the solver logged hints, so
   hint collection cannot change what is learnt, deleted or written. *)
let drat_stream_pinned () =
  let module G = Circuit.Generators in
  let buf = Buffer.create 65536 in
  let add f =
    let r =
      Sat.Solver.solve
        ~engine:(Sat.Solver.Cdcl proof_config)
        ~pipeline:Sat.Solver.full_pipeline f
    in
    Buffer.add_string buf
      (P.drat_to_string (Option.value r.Sat.Solver.proof ~default:[]))
  in
  for seed = 0 to 99 do
    add (fst (corpus_report seed))
  done;
  add (php 6);
  let m = G.multiplier ~bits:4 in
  add (fst (Circuit.Miter.to_cnf m (Circuit.Transform.rewrite_xor m)));
  add
    (fst
       (Circuit.Miter.to_cnf (G.ripple_adder ~bits:8)
          (G.kogge_stone_adder ~bits:8)));
  Alcotest.(check string) "DRAT digest" "90fc5928b440808a6e37ba1db0f7703f"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Every way [check_lrat] rejects a certificate, each on a one- or
   two-line edit of a valid refutation of the four clauses over x1, x2
   (ids 1-4): line 5 derives (2) from 1 and 2, line 6 the empty
   clause. *)
let lrat_rejections () =
  let f = Th.formula_of [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ]; [ -1; -2 ] ] in
  let line id lits hints =
    { P.id; lits = Cnf.Clause.of_dimacs_list lits; hints = Array.of_list hints }
  in
  let unit2 = line 5 [ 2 ] [ 1; 2 ] and empty = line 6 [] [ 5; 3; 4 ] in
  let check name expected lines =
    Alcotest.(check (result unit string)) name expected (P.check_lrat f lines)
  in
  check "valid" (Ok ()) [ unit2; empty ];
  check "no lines" (Error "proof ends without an empty-clause line") [];
  check "id not above the formula's"
    (Error "line 1: id 4 not above previous id 4")
    [ line 4 [ 2 ] [ 1; 2 ]; empty ];
  check "repeated id" (Error "line 2: id 5 not above previous id 5")
    [ unit2; line 5 [] [ 5; 3; 4 ] ];
  check "unknown hint" (Error "line 1: hint 9 names an unknown clause")
    [ line 5 [ 2 ] [ 1; 9 ]; empty ];
  check "hint to a later line" (Error "line 1: hint 6 names an unknown clause")
    [ line 5 [ 2 ] [ 1; 6 ]; empty ];
  check "hint to its own line" (Error "line 1: hint 5 names an unknown clause")
    [ line 5 [ 2 ] [ 1; 5 ]; empty ];
  check "satisfied hint" (Error "line 1: hint 3 is satisfied, not unit")
    [ line 5 [ 2 ] [ 3; 1; 2 ]; empty ];
  check "non-unit hint" (Error "line 2: hint 1 is not unit (2 unassigned)")
    [ unit2; line 6 [] [ 1; 5; 3; 4 ] ];
  check "no conflict" (Error "line 1: hints ended without a conflict")
    [ line 5 [ 2 ] [ 1 ]; empty ];
  check "no hints" (Error "line 1: hints ended without a conflict")
    [ line 5 [ 2 ] []; empty ];
  check "early conflict"
    (Error "line 1: hint 2 conflicts before the final hint")
    [ line 5 [ 2 ] [ 1; 2; 3 ]; empty ];
  check "non-empty final line"
    (Error "line 1: final line is not the empty clause") [ unit2 ];
  check "zero hint" (Error "line 1: RAT hint 0 unsupported")
    [ line 5 [ 2 ] [ 0; 1; 2 ]; empty ];
  check "negative hint" (Error "line 2: RAT hint -3 unsupported")
    [ unit2; line 6 [] [ 5; -3; 4 ] ];
  (* ids may skip, but the table stays the size of the input: a huge id
     is checked without allocating anything on its scale *)
  let huge = 1_000_000_000_000_000 in
  let f1 = Th.formula_of [ [ 1 ]; [ -1 ] ] in
  let lines = [ line huge [] [ 1; 2 ] ] in
  let before = Gc.allocated_bytes () in
  Alcotest.(check (result unit string)) "huge id" (Ok ()) (P.check_lrat f1 lines);
  Alcotest.(check (result unit string)) "huge id, bad hint"
    (Error "line 1: hint 3 names an unknown clause")
    (P.check_lrat f1 [ line huge [] [ 1; 3 ] ]);
  Alcotest.(check (result unit string)) "hint to a huge id"
    (Error (Printf.sprintf "line 1: hint %d names an unknown clause" huge))
    (P.check_lrat f1 [ line 3 [] [ huge ] ]);
  if Gc.allocated_bytes () -. before > 1e6 then
    Alcotest.fail "a huge id allocated on its scale";
  check "skipped ids"
    (Ok ()) [ line 7 [ 2 ] [ 1; 2 ]; line huge [] [ 7; 3; 4 ] ]

let suite =
  [
    Th.case "certified unsat" certified_unsat;
    Th.case "certified pigeonhole" certified_pigeonhole;
    Th.case "sat derivations" sat_runs_give_valid_derivations;
    Th.case "corrupted proofs rejected" corrupted_proof_rejected;
    Th.case "empty proof" empty_proof_of_sat;
    Th.case "trivial refutation" inconsistent_formula_trivially_refuted;
    Th.case "trim emits checkable LRAT" trim_emits_checkable_lrat;
    Th.case "unsat core smoke" unsat_core_smoke;
    Th.case "pigeonhole core is everything" pigeonhole_core_is_everything;
    Th.case "DRAT/LRAT text roundtrip" deletions_parse_and_print;
    Th.case "pures rejected with proof" pures_incompatible_with_proof;
    Th.case "preprocess refutation checks" preprocess_refutation_is_self_contained;
    Th.qcheck prop_unsat_always_certifiable;
    Th.qcheck prop_deletion_policies_still_certify;
    Th.case "kept clause true at root" kept_clause_true_at_root;
    Th.case "unit deleted and re-added" unit_deleted_and_re_added;
    Th.case "root reason deleted and reactivated"
      root_reason_deleted_and_reactivated;
    Th.case "re-attached clause unit at root" reattached_clause_unit_at_root;
    Th.qcheck prop_full_pipeline_drat;
    Th.qcheck prop_perturbed_proofs_trim_soundly;
    Th.qcheck prop_solver_hints_need_no_fallback;
    Th.qcheck prop_pipeline_hints_hold;
    Th.case "circuit pipeline hints hold" circuit_pipeline_hints_hold;
    Th.case "level-0 chains in hints" level0_chains_in_hints;
    Th.case "level-0 chains stay linear" level0_chains_stay_linear;
    Th.qcheck prop_perturbed_hints_trim_soundly;
    Th.case "forged hints rejected" forged_hints_rejected;
    Th.case "LRAT rejections" lrat_rejections;
    Th.case "DRAT stream pinned" drat_stream_pinned;
  ]
