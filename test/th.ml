(* Shared test helpers. *)

let lit = Cnf.Lit.of_dimacs

let formula_of cls =
  let f = Cnf.Formula.create () in
  List.iter (Cnf.Formula.add_dimacs f) cls;
  f

let random_cnf rng nvars nclauses maxlen =
  let f = Cnf.Formula.create ~nvars () in
  for _ = 1 to nclauses do
    let len = 1 + Sat.Rng.int rng maxlen in
    let lits =
      List.init len (fun _ ->
          Cnf.Lit.of_var (Sat.Rng.int rng nvars) (Sat.Rng.bool rng))
    in
    Cnf.Formula.add_clause_l f lits
  done;
  f

let outcome_sat = function
  | Sat.Types.Sat _ -> true
  | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ | Sat.Types.Unknown _ -> false

let model_of = function
  | Sat.Types.Sat m -> m
  | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ | Sat.Types.Unknown _ ->
    Alcotest.fail "expected SAT"

(* an absolute deadline [secs] seconds from now *)
let within secs = Sat.Monotime.now_s () +. secs

let solve_cdcl ?config f = Sat.Cdcl.solve (Sat.Cdcl.create ?config f)

let assert_equivalent ?(msg = "circuits equivalent") c1 c2 =
  let f, _ = Circuit.Miter.to_cnf c1 c2 in
  match solve_cdcl f with
  | Sat.Types.Unsat -> ()
  | Sat.Types.Sat _ -> Alcotest.fail (msg ^ ": found distinguishing vector")
  | Sat.Types.Unsat_assuming _ | Sat.Types.Unknown _ ->
    Alcotest.fail (msg ^ ": inconclusive")

let assert_inequivalent ?(msg = "circuits differ") c1 c2 =
  let f, _ = Circuit.Miter.to_cnf c1 c2 in
  match solve_cdcl f with
  | Sat.Types.Sat _ -> ()
  | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ | Sat.Types.Unknown _ ->
    Alcotest.fail msg

let bits_of n width = Array.init width (fun i -> n land (1 lsl i) <> 0)

let int_of_bits a =
  Array.to_list a
  |> List.mapi (fun i b -> if b then 1 lsl i else 0)
  |> List.fold_left ( + ) 0

let qcheck = QCheck_alcotest.to_alcotest

let case name f = Alcotest.test_case name `Quick f
