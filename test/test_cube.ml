(* Cube-and-conquer (Sat.Cube + Sat.Conquer): lookahead cube
   generation, cover soundness, the work-stealing conquer loop, and
   agreement with the certified sequential solver. *)

module T = Sat.Types

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

let opts ?(jobs = 2) ?(depth = 4) ?(cutoff = 10_000) () =
  {
    Sat.Conquer.default_options with
    Sat.Conquer.jobs;
    cube = { Sat.Cube.default_options with Sat.Cube.depth };
    cutoff;
  }

(* --- the lookahead generator ---------------------------------------------- *)

let generator_is_deterministic () =
  let gen () =
    Sat.Cube.generate
      ~options:{ Sat.Cube.default_options with Sat.Cube.depth = 5; seed = 7 }
      (random_3cnf ~seed:3 ~nvars:60 ~ratio:4.0)
  in
  let a = gen () and b = gen () in
  Alcotest.(check bool) "same cubes" true (a.Sat.Cube.cubes = b.Sat.Cube.cubes);
  Alcotest.(check bool) "same units" true (a.Sat.Cube.units = b.Sat.Cube.units);
  Alcotest.(check bool) "same refuted branches" true
    (a.Sat.Cube.refuted = b.Sat.Cube.refuted);
  Alcotest.(check int) "same probe count" a.Sat.Cube.probes b.Sat.Cube.probes

(* soundness of the cover: F is satisfiable iff F extended with some
   cube is.  We check it by brute force on small formulas — every model
   of F must satisfy at least one cube (given the failed-literal units),
   and every refuted branch must be a correct implicate (no model of F
   inside it). *)
let cover_preserves_models () =
  let checked = ref 0 in
  for seed = 1 to 40 do
    let nvars = 8 + (seed mod 5) in
    let f = random_3cnf ~seed ~nvars ~ratio:3.5 in
    let la =
      Sat.Cube.generate
        ~options:{ Sat.Cube.default_options with Sat.Cube.depth = 3; seed }
        f
    in
    match la.Sat.Cube.decided with
    | Some (T.Sat m) ->
      Alcotest.(check bool) "lookahead model satisfies" true
        (Cnf.Formula.eval (fun v -> m.(v)) f)
    | Some T.Unsat ->
      (* brute force confirms there is no model at all *)
      let models = ref 0 in
      for bits = 0 to (1 lsl nvars) - 1 do
        if Cnf.Formula.eval (fun v -> bits land (1 lsl v) <> 0) f then
          incr models
      done;
      Alcotest.(check int) "lookahead UNSAT is real" 0 !models
    | Some _ | None ->
      incr checked;
      let sat_lit value l =
        let v = Cnf.Lit.var l in
        if Cnf.Lit.is_pos l then value v else not (value v)
      in
      for bits = 0 to (1 lsl nvars) - 1 do
        let value v = bits land (1 lsl v) <> 0 in
        if Cnf.Formula.eval value f then begin
          (* units are implied literals: every model satisfies them *)
          List.iter
            (fun l ->
               Alcotest.(check bool) "failed-literal unit holds" true
                 (sat_lit value l))
            la.Sat.Cube.units;
          (* no model lives inside a refuted branch *)
          List.iter
            (fun branch ->
               Alcotest.(check bool) "refuted branch excludes models" false
                 (List.for_all (sat_lit value) branch))
            la.Sat.Cube.refuted;
          (* and some cube covers the model *)
          Alcotest.(check bool) "some cube covers every model" true
            (List.exists (List.for_all (sat_lit value)) la.Sat.Cube.cubes)
        end
      done
  done;
  Alcotest.(check bool) "exercised the cover check" true (!checked > 0)

let generator_refutes_php () =
  let la =
    Sat.Cube.generate
      ~options:{ Sat.Cube.default_options with Sat.Cube.depth = 12 }
      (php 4 3)
  in
  match la.Sat.Cube.decided with
  | Some T.Unsat -> ()
  | Some o -> Alcotest.failf "expected lookahead unsat, got %a" T.pp_outcome o
  | None ->
    (* not refuted outright: the cover must still be nonempty and the
       conquer phase settles it *)
    Alcotest.(check bool) "cubes emitted" true (la.Sat.Cube.cubes <> [])

(* --- the conquer loop ------------------------------------------------------ *)

let conquer_unsat_php () =
  let r = Sat.Conquer.solve ~options:(opts ~jobs:2 ~depth:6 ()) (php 7 6) in
  match r.Sat.Conquer.outcome with
  | T.Unsat -> ()
  | o -> Alcotest.failf "expected unsat, got %a" T.pp_outcome o

let conquer_sat_model_validated () =
  (* an easily satisfiable formula: the reported model must check out *)
  let f = random_3cnf ~seed:11 ~nvars:50 ~ratio:3.0 in
  let r = Sat.Conquer.solve ~options:(opts ~jobs:2 ~depth:4 ()) f in
  match r.Sat.Conquer.outcome with
  | T.Sat m ->
    Alcotest.(check bool) "model satisfies" true
      (Cnf.Formula.eval (fun v -> m.(v)) f)
  | o -> Alcotest.failf "expected sat, got %a" T.pp_outcome o

let conquer_splits_under_tiny_cutoff () =
  (* a 1-conflict budget forces every nontrivial cube over its cutoff:
     the dynamic splitter must engage and the answer stay exact *)
  let r =
    Sat.Conquer.solve ~options:(opts ~jobs:2 ~depth:2 ~cutoff:1 ()) (php 6 5)
  in
  (match r.Sat.Conquer.outcome with
   | T.Unsat -> ()
   | o -> Alcotest.failf "expected unsat, got %a" T.pp_outcome o);
  Alcotest.(check bool) "splitter engaged" true (r.Sat.Conquer.splits > 0)

let conquer_timeout_no_deadlock () =
  let t0 = Unix.gettimeofday () in
  let r =
    Sat.Conquer.solve ~deadline:(Th.within 0.1) ~options:(opts ~jobs:2 ())
      (php 10 9)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match r.Sat.Conquer.outcome with
   | T.Unknown "timeout" -> ()
   | T.Unsat -> () (* fast host: allowed to finish inside the window *)
   | o -> Alcotest.failf "expected timeout or unsat, got %a" T.pp_outcome o);
  Alcotest.(check bool) "returned promptly (no deadlock)" true (elapsed < 10.)

let conquer_stop_flag () =
  let stop = Atomic.make true in
  let r =
    Sat.Conquer.solve ~stop ~options:(opts ~jobs:2 ()) (php 9 8)
  in
  match r.Sat.Conquer.outcome with
  | T.Unknown _ -> ()
  | T.Unsat -> () (* refuted during lookahead before the flag is polled *)
  | o -> Alcotest.failf "expected interrupted or unsat, got %a" T.pp_outcome o

let lookahead_stops_on_token () =
  (* lookahead alone takes seconds here; a token set 50 ms in must end
     it at the next lookahead node *)
  let f = random_3cnf ~seed:1 ~nvars:20_000 ~ratio:4.2 in
  let stop = Atomic.make false in
  let setter =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Atomic.set stop true)
  in
  let t0 = Unix.gettimeofday () in
  let r =
    Sat.Conquer.solve ~stop
      ~options:{ Sat.Conquer.default_options with Sat.Conquer.jobs = 2 }
      f
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Domain.join setter;
  (match r.Sat.Conquer.outcome with
   | T.Unknown "interrupted" -> ()
   | o -> Alcotest.failf "expected interrupted, got %a" T.pp_outcome o);
  Alcotest.(check bool) "answered well before lookahead ends" true
    (elapsed < 1.)

(* 300 random 3-CNF instances straddling the phase transition:
   cube-and-conquer (jobs=2, sharing on) agrees with the certified
   sequential solver; every SAT model is evaluated against the formula,
   every UNSAT answer cross-checked by the RUP proof checker. *)
let property_cube_conquer_agrees_with_certified () =
  let disagreements = ref 0 in
  for seed = 1 to 300 do
    let nvars = 20 + (seed mod 11) in
    let ratio = 3.8 +. (0.1 *. float_of_int (seed mod 10)) in
    let f = random_3cnf ~seed ~nvars ~ratio in
    let r = Sat.Conquer.solve ~options:(opts ~jobs:2 ~depth:4 ()) f in
    let certified, verdict = Sat.Proof.solve_certified f in
    (match (r.Sat.Conquer.outcome, certified) with
     | T.Sat m, T.Sat _ ->
       if not (Cnf.Formula.eval (fun v -> v < Array.length m && m.(v)) f)
       then begin
         incr disagreements;
         Printf.printf "seed %d: cube-conquer model does not satisfy\n" seed
       end
     | T.Unsat, T.Unsat ->
       if verdict <> Sat.Proof.Valid_refutation then begin
         incr disagreements;
         Printf.printf "seed %d: refutation not certified\n" seed
       end
     | o, c ->
       incr disagreements;
       Format.printf "seed %d: cube-conquer %a vs certified %a@." seed
         T.pp_outcome o T.pp_outcome c)
  done;
  Alcotest.(check int)
    "cube-conquer agrees with certified solver on 300 instances" 0
    !disagreements

let suite =
  [
    Th.case "generator is deterministic under a fixed seed"
      generator_is_deterministic;
    Th.case "cube cover preserves models (brute force)" cover_preserves_models;
    Th.case "generator refutes php(4,3) by probing alone"
      generator_refutes_php;
    Th.case "conquer refutes php(7,6)" conquer_unsat_php;
    Th.case "conquer SAT model validated" conquer_sat_model_validated;
    Th.case "dynamic splitting under a tiny cutoff stays exact"
      conquer_splits_under_tiny_cutoff;
    Th.case "conquer timeout, no deadlock" conquer_timeout_no_deadlock;
    Th.case "external stop flag honoured" conquer_stop_flag;
    Th.case "lookahead stops on the token" lookahead_stops_on_token;
    Th.case "cube-conquer vs certified on 300 phase-transition instances"
      property_cube_conquer_agrees_with_certified;
  ]
