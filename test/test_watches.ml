(* Guards for the propagation-layer memory overhaul: the debug watch
   checker after solving (and after clause-database reductions, which
   exercise lazy deletion + compaction), plus a 300-instance sweep pinned
   to the answer set recorded before blocking literals were introduced. *)

(* bench/util.ml's generator, duplicated so tests depend only on the
   libraries *)
let random_3sat ~seed ~nvars ~ratio =
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
    let vars = distinct [] 3 in
    Cnf.Formula.add_clause_l f
      (List.map (fun v -> Cnf.Lit.of_var v (Sat.Rng.bool rng)) vars)
  done;
  f

let check_ok ctx s =
  match Sat.Cdcl.check_watches s with
  | Ok () -> ()
  | Error msg -> Alcotest.fail (Printf.sprintf "%s: %s" ctx msg)

let configs =
  [
    ("default", Sat.Types.default);
    ("grasp-like", Sat.Types.grasp_like);
    ("lbd", { Sat.Types.default with deletion = Sat.Types.Lbd_bounded 3 });
    ("size", { Sat.Types.default with deletion = Sat.Types.Size_bounded 4 });
    ("no-deletion", { Sat.Types.default with deletion = Sat.Types.No_deletion });
    ("chrono+proof",
     { Sat.Types.default with chronological = true; proof_logging = true });
  ]

(* invariant holds after solving, after a reduction pass (lazy deletion +
   tombstone compaction), and after an incremental re-solve *)
let invariant_after_solve () =
  List.iter
    (fun (cname, config) ->
       List.iter
         (fun seed ->
            let f = random_3sat ~seed ~nvars:60 ~ratio:4.26 in
            let s = Sat.Cdcl.create ~config f in
            let ctx = Printf.sprintf "%s/seed%d" cname seed in
            ignore (Sat.Cdcl.solve s);
            check_ok (ctx ^ " post-solve") s;
            Sat.Cdcl.prune_learnts s ~keep:(fun ~lbd ~size:_ ~lits:_ ->
                lbd <= 2);
            check_ok (ctx ^ " post-prune") s;
            ignore (Sat.Cdcl.solve s);
            check_ok (ctx ^ " post-resolve") s)
         [ 1; 7; 13 ])
    configs

(* heavy deletion pressure: repeated solve-under-budget / prune cycles
   must keep the tombstone accounting exact *)
let invariant_under_churn () =
  let f = random_3sat ~seed:42 ~nvars:120 ~ratio:4.26 in
  let s = Sat.Cdcl.create f in
  for round = 1 to 5 do
    ignore (Sat.Cdcl.solve ~max_conflicts:200 s);
    check_ok (Printf.sprintf "churn round %d solve" round) s;
    Sat.Cdcl.prune_learnts s ~keep:(fun ~lbd:_ ~size:_ ~lits:_ ->
        round mod 2 = 0);
    check_ok (Printf.sprintf "churn round %d prune" round) s
  done

(* Answers of the solver before the blocking-literal overhaul on 300
   random instances at the phase transition (nvars=40, ratio=4.26,
   seeds 0..299, default config).  Blocking literals may legally change
   the search path but never an answer; DPLL arbitrates independently. *)
let recorded_answers =
  "SSSSUSSSSUUSUUSSUUSSSSUSSSSUUSSUUSUUSSSSSUUUSSSUSSUSUUSSUSSS\
   UUSSSSUUSSUUSSSSSSUSUSSSSSUUUUSSSSSSUUUSSSSSSUUSSSUUSSSSSSSU\
   SSSUSSUUUSUSSSSSUSSSSSUSSUSSSSSUSSUSSSSSUSSUSSSSSUSUSSSUUUSS\
   SSUSUUSUSSSSSSSUSSUUUSUSSSSSSUUSSSSUUSSUUUSUSSUUUUUSSSSSUSUS\
   SUSUSSUSSSUSUSSUUSSSSSUSUSSUSUUSSUSSSSUSSSSUUSSSSSUUSSSSUUSU"

let property_300 () =
  Alcotest.(check int) "recorded sweep size" 300
    (String.length recorded_answers);
  for seed = 0 to 299 do
    let f = random_3sat ~seed ~nvars:40 ~ratio:4.26 in
    let s = Sat.Cdcl.create f in
    let cdcl = Sat.Cdcl.solve s in
    check_ok (Printf.sprintf "sweep seed %d" seed) s;
    let c = if Th.outcome_sat cdcl then 'S' else 'U' in
    if c <> recorded_answers.[seed] then
      Alcotest.failf "seed %d: answer %c differs from pre-overhaul %c" seed c
        recorded_answers.[seed];
    let dpll, _ = Sat.Dpll.solve f in
    let d = if Th.outcome_sat dpll then 'S' else 'U' in
    if c <> d then Alcotest.failf "seed %d: cdcl %c vs dpll %c" seed c d;
    (* SAT models must actually satisfy the formula *)
    if c = 'S' then
      let m = Th.model_of cdcl in
      Cnf.Formula.iter_clauses f (fun cl ->
          if
            not
              (List.exists
                 (fun l -> m.(Cnf.Lit.var l) = Cnf.Lit.is_pos l)
                 (Cnf.Clause.to_list cl))
          then Alcotest.failf "seed %d: model leaves a clause false" seed)
  done

(* --- the lookahead probing API ------------------------------------------ *)

module C = Sat.Cdcl

let prober cls =
  let s = C.create (Th.formula_of cls) in
  Alcotest.(check bool) "root consistent" true (C.propagate_root s);
  s

let span s i j =
  List.init (j - i) (fun k -> Cnf.Lit.to_dimacs (C.trail_get s (i + k)))

let trail s = span s 0 (C.trail_size s)

(* the span a probe implies; [None] when it conflicted *)
let try_push s l =
  match C.probe_push s (Th.lit l) with
  | C.Probe_ok (i, j) -> Some (span s i j)
  | C.Probe_conflict -> None

let push s l =
  match try_push s l with
  | Some implied -> implied
  | None -> Alcotest.failf "probe %d conflicted" l

let assert_lit s l = C.probe_assert s (Th.lit l)
let ints = Alcotest.(list int)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let chain () = prober [ [ -1; 2 ]; [ -2; 3 ]; [ -3; 4 ] ]

let probe_chain () =
  let s = chain () in
  Alcotest.check ints "span is the chain in order" [ 1; 2; 3; 4 ] (push s 1);
  check_int "one scratch level" 1 (C.decision_level s)

let probe_conflict_pops () =
  let s = prober [ [ -1; 2 ]; [ -1; -2 ]; [ 3; 4 ] ] in
  check_bool "1 is a failed literal" true (try_push s 1 = None);
  check_int "level popped" 0 (C.decision_level s);
  check_int "trail empty" 0 (C.trail_size s);
  check_int "1 unassigned" (-1) (C.value s (Th.lit 1));
  check_bool "still consistent" true (C.consistent s)

let probe_repeat_after_pop () =
  let s = chain () in
  let first = push s 1 in
  C.probe_pop s;
  Alcotest.check ints "trail restored" [] (trail s);
  Alcotest.check ints "same span again" first (push s 1);
  C.probe_pop s;
  Alcotest.check ints "backward chain" [ -4; -3; -2; -1 ] (push s (-4));
  C.probe_pop s;
  C.probe_pop s;
  check_int "pop at level 0 is a no-op" 0 (C.decision_level s)

let probe_root_units () =
  let s = prober [ [ 1 ]; [ -1; 2 ]; [ 3; 4 ] ] in
  Alcotest.check ints "root trail" [ 1; 2 ] (trail s);
  check_int "root fact level" 0 (C.var_level s 0);
  Alcotest.check ints "already-true literal: empty span" [] (push s 2);
  C.probe_pop s;
  check_bool "false root literal conflicts" true (try_push s (-1) = None);
  check_bool "root assert" true (assert_lit s 3);
  Alcotest.check ints "asserted unit stays" [ 1; 2; 3 ] (trail s)

let probe_root_conflict () =
  let s = C.create (Th.formula_of [ [ 1 ]; [ -1; 2 ]; [ -2 ] ]) in
  check_bool "refuted by propagation" false (C.propagate_root s);
  check_bool "inconsistent" false (C.consistent s);
  check_bool "assert refused" false (assert_lit s 3);
  let s = prober [ [ -1; 2 ]; [ -1; -2 ] ] in
  check_bool "failing root assert" false (assert_lit s 1);
  check_bool "refuted by the assert" false (C.consistent s)

let probe_assert_above_root () =
  let s = prober [ [ -1; -2; 3 ]; [ -3; -4 ]; [ 5; 6 ] ] in
  ignore (push s 1);
  check_bool "assert 2 implies 3" true (assert_lit s 2);
  check_int "3 on the probe level" 1 (C.var_level s 2);
  check_bool "assert 4 conflicts" false (assert_lit s 4);
  check_bool "only the prefix is poisoned" true (C.consistent s);
  C.probe_pop s;
  Alcotest.check ints "trail clean" [] (trail s);
  Alcotest.check ints "prefix reusable" [ 4; -3 ] (push s 4)

let probe_nested_levels () =
  let s = prober [ [ -1; 2 ]; [ -3; 4 ]; [ -2; -4; 5 ] ] in
  let levels () = List.init 5 (C.var_level s) in
  Alcotest.check ints "outer" [ 1; 2 ] (push s 1);
  Alcotest.check ints "inner sees the outer prefix" [ 3; 4; 5 ] (push s 3);
  Alcotest.check ints "levels by variable" [ 1; 1; 2; 2; 2 ] (levels ());
  C.probe_pop s;
  Alcotest.check ints "inner level undone" [ 1; 1; -1; -1; -1 ] (levels ());
  Alcotest.check ints "outer span kept" [ 1; 2 ] (trail s)

(* Figure 4 of the paper: w1 = (u + x + ~w), w2 = (x + ~y),
   w3 = (w + y + ~z), with u, x, y, z, w as DIMACS variables 1..5 *)
let probe_reasons_fig4 () =
  let u = 1 and x = 2 and y = 3 and z = 4 and w = 5 in
  let s = prober [ [ u; x; -w ]; [ x; -y ]; [ w; y; -z ] ] in
  let reason v =
    let acc = ref [] in
    C.iter_reason s (v - 1) (fun l -> acc := Cnf.Lit.to_dimacs l :: !acc);
    List.sort compare !acc
  in
  ignore (push s z);
  check_bool "assumption u=0" true (assert_lit s (-u));
  Alcotest.check ints "branch w" [ w; x ] (push s w);
  check_int "x on the branch level" 2 (C.var_level s (x - 1));
  check_int "u on the assumption level" 1 (C.var_level s (u - 1));
  Alcotest.check ints "x rests on ~u and w (clause w1)" [ -u; w ] (reason x);
  Alcotest.check ints "probe root has no reason" [] (reason w);
  Alcotest.check ints "asserted unit has no reason" [] (reason u);
  Alcotest.check ints "first probe has no reason" [] (reason z);
  C.probe_pop s;
  check_int "unassigned: no level" (-1) (C.var_level s (x - 1));
  Alcotest.check ints "unassigned: no reason" [] (reason x);
  Alcotest.check ints "branch y" [ y; x ] (push s y);
  Alcotest.check ints "x rests on y (clause w2)" [ y ] (reason x)

let suite =
  [
    Th.case "watch invariant across configs" invariant_after_solve;
    Th.case "watch invariant under deletion churn" invariant_under_churn;
    Th.case "300-instance sweep vs pre-overhaul answers + dpll" property_300;
  ]

(* propagation as the probing algorithms see it, through the probe API *)
let bcp_suite =
  [
    Th.case "propagation chain" probe_chain;
    Th.case "conflict detection" probe_conflict_pops;
    Th.case "checkpoints restore" probe_repeat_after_pop;
    Th.case "root units" probe_root_units;
    Th.case "root conflict" probe_root_conflict;
    Th.case "probe_assert above level 0" probe_assert_above_root;
    Th.case "nested levels" probe_nested_levels;
    Th.case "reasons on figure 4" probe_reasons_fig4;
  ]
