module A = Aig
module N = Circuit.Netlist

let constants_and_identities () =
  let m = A.create () in
  let a = A.add_input m in
  Alcotest.(check bool) "a & true = a" true (A.and_ m a A.const_true = a);
  Alcotest.(check bool) "a & false = false" true
    (A.and_ m a A.const_false = A.const_false);
  Alcotest.(check bool) "a & a = a" true (A.and_ m a a = a);
  Alcotest.(check bool) "a & ~a = false" true
    (A.and_ m a (A.neg a) = A.const_false);
  Alcotest.(check bool) "double negation" true (A.neg (A.neg a) = a)

let hash_consing () =
  let m = A.create () in
  let a = A.add_input m in
  let b = A.add_input m in
  let g1 = A.and_ m a b in
  let g2 = A.and_ m b a in
  Alcotest.(check bool) "commutative sharing" true (g1 = g2);
  Alcotest.(check int) "one AND node" 1 (A.num_ands m);
  let x1 = A.xor m a b in
  let x2 = A.xor m a b in
  Alcotest.(check bool) "xor shared" true (x1 = x2)

let eval_semantics () =
  let m = A.create () in
  let a = A.add_input m in
  let b = A.add_input m in
  let f = A.mux m a (A.xor m a b) (A.or_ m a b) in
  for mask = 0 to 3 do
    let ins = [| mask land 1 <> 0; mask land 2 <> 0 |] in
    let expected = if ins.(0) then ins.(0) <> ins.(1) else ins.(0) || ins.(1) in
    Alcotest.(check bool) "mux/xor/or eval" expected (A.eval m ins f)
  done

let netlist_roundtrip () =
  List.iter
    (fun c ->
       let m, outs = A.of_netlist c in
       let back = A.to_netlist m ~outputs:outs in
       Th.assert_equivalent ~msg:"aig roundtrip" c back;
       (* AIG evaluation matches circuit simulation *)
       let rng = Sat.Rng.create 3 in
       for _ = 1 to 30 do
         let ins =
           Array.init (List.length (N.inputs c)) (fun _ -> Sat.Rng.bool rng)
         in
         let sim = Circuit.Simulate.eval_outputs c ins in
         List.iteri
           (fun i (_, e) ->
              Alcotest.(check bool) "aig eval" sim.(i) (A.eval m ins e))
           outs
       done)
    [
      Circuit.Generators.c17 ();
      Circuit.Generators.ripple_adder ~bits:3;
      Circuit.Generators.multiplier ~bits:3;
      Circuit.Generators.parity ~bits:5;
      Circuit.Generators.random_circuit ~inputs:6 ~gates:30 ~seed:9;
    ]

let merge_shares_structure () =
  let c = Circuit.Generators.ripple_adder ~bits:4 in
  let m_single, _ = A.of_netlist c in
  let m_double, pairs = A.merge_netlists c (N.copy c) in
  (* an identical copy adds no AND nodes at all *)
  Alcotest.(check int) "full sharing" (A.num_ands m_single)
    (A.num_ands m_double);
  List.iter
    (fun (a, b) -> Alcotest.(check bool) "outputs collapse" true (a = b))
    pairs

let cnf_translation () =
  let rng = Sat.Rng.create 21 in
  for seed = 1 to 15 do
    let c = Circuit.Generators.random_circuit ~inputs:5 ~gates:25 ~seed:(seed + 40) in
    let m, outs = A.of_netlist c in
    let f, lit_of = A.to_cnf m ~roots:(List.map snd outs) in
    let ins = Array.init 5 (fun _ -> Sat.Rng.bool rng) in
    (* constrain the inputs through fresh input edges *)
    let g = Cnf.Formula.copy f in
    List.iteri
      (fun i _ ->
         let l = lit_of (A.input m i) in
         Cnf.Formula.add_clause_l g
           [ (if ins.(i) then l else Cnf.Lit.negate l) ])
      (N.inputs c);
    match Th.solve_cdcl g with
    | Sat.Types.Sat model ->
      List.iteri
        (fun i (_, e) ->
           let l = lit_of e in
           let v = model.(Cnf.Lit.var l) in
           let v = if Cnf.Lit.is_pos l then v else not v in
           Alcotest.(check bool) "cnf model matches simulation"
             (Circuit.Simulate.eval_outputs c ins).(i) v)
        outs
    | _ -> Alcotest.fail "inputs fixed: sat expected"
  done

let aig_based_cec () =
  (* merged-manager equivalence check: miter over shared-structure AIG *)
  let c1 = Circuit.Generators.multiplier ~bits:3 in
  let c2 = Circuit.Transform.rewrite_xor c1 in
  let m, pairs = A.merge_netlists c1 c2 in
  let diff =
    List.fold_left
      (fun acc (a, b) -> A.or_ m acc (A.xor m a b))
      A.const_false pairs
  in
  let f, lit_of = A.to_cnf m ~roots:[ diff ] in
  Cnf.Formula.add_clause_l f [ lit_of diff ];
  Alcotest.(check bool) "equivalent via AIG miter" false
    (Th.outcome_sat (Th.solve_cdcl f))

let two_level_rewriting () =
  let m = A.create () in
  let x = A.add_input m in
  let y = A.add_input m in
  let xy = A.and_ m x y in
  (* absorption *)
  Alcotest.(check bool) "(x&y)&x = x&y" true (A.and_ m xy x = xy);
  (* contradiction *)
  Alcotest.(check bool) "(x&y)&~x = 0" true
    (A.and_ m xy (A.neg x) = A.const_false);
  (* complemented implication *)
  Alcotest.(check bool) "~(x&y)&~x = ~x" true
    (A.and_ m (A.neg xy) (A.neg x) = A.neg x);
  (* substitution: ~(x&y)&x = x&~y *)
  Alcotest.(check bool) "~(x&y)&x = x&~y" true
    (A.and_ m (A.neg xy) x = A.and_ m x (A.neg y));
  (* resolution: ~(x&y)&~(x&~y) = ~x *)
  let xny = A.and_ m x (A.neg y) in
  Alcotest.(check bool) "resolution" true
    (A.and_ m (A.neg xy) (A.neg xny) = A.neg x);
  (* cross-AND contradiction: (x&y)&(s&~y)... shares literal y *)
  let z = A.add_input m in
  let zy = A.and_ m z (A.neg y) in
  Alcotest.(check bool) "(x&y)&(z&~y) = 0" true
    (A.and_ m xy zy = A.const_false)

let rewriting_preserves_semantics () =
  (* random AND trees built through the rewriting constructor must agree
     with a reference evaluation *)
  let rng = Sat.Rng.create 99 in
  for _ = 1 to 50 do
    let m = A.create () in
    let n_in = 4 in
    let ins = Array.init n_in (fun _ -> A.add_input m) in
    (* reference: edge -> (bool array -> bool) closure via A.eval *)
    let pool = ref (Array.to_list ins) in
    for _ = 1 to 25 do
      let pick () =
        let l = !pool in
        let e = List.nth l (Sat.Rng.int rng (List.length l)) in
        if Sat.Rng.bool rng then A.neg e else e
      in
      let e = A.and_ m (pick ()) (pick ()) in
      pool := e :: !pool
    done;
    (* semantics: every pool edge evaluates like the AND/NOT tree it was
       built from — cross-checked against sim_words below *)
    for mask = 0 to (1 lsl n_in) - 1 do
      let vals = Array.init n_in (fun i -> mask land (1 lsl i) <> 0) in
      let words = Array.init n_in (fun i -> if vals.(i) then 1 else 0) in
      let sim = A.sim_words m words in
      List.iter
        (fun e ->
           let by_eval = A.eval m vals e in
           let w = sim.(A.node_of e) land 1 <> 0 in
           let by_sim = if A.is_complemented e then not w else w in
           Alcotest.(check bool) "eval agrees with sim_words" by_eval by_sim)
        !pool
    done
  done

let sim_words_parallel () =
  let c = Circuit.Generators.multiplier ~bits:3 in
  let m, outs = A.of_netlist c in
  let n_in = List.length (N.inputs c) in
  let rng = Sat.Rng.create 5 in
  let words = Circuit.Simulate.random_words rng n_in in
  let sim = A.sim_words m words in
  (* each bit lane of the packed word is one ordinary evaluation *)
  for lane = 0 to Circuit.Simulate.word_width - 1 do
    let ins = Array.init n_in (fun i -> words.(i) land (1 lsl lane) <> 0) in
    List.iter
      (fun (_, e) ->
         let w = sim.(A.node_of e) land (1 lsl lane) <> 0 in
         let v = if A.is_complemented e then not w else w in
         Alcotest.(check bool) "lane matches eval" (A.eval m ins e) v)
      outs
  done

let cleanup_sweeps_dangling () =
  let m = A.create () in
  let a = A.add_input m in
  let b = A.add_input m in
  let c = A.add_input m in
  let keep = A.and_ m a b in
  let _dangling = A.and_ m (A.xor m a c) (A.or_ m b c) in
  let total = A.num_ands m in
  let m2, outs = A.cleanup m ~outputs:[ keep; A.neg keep ] in
  Alcotest.(check bool) "dangling dropped" true (A.num_ands m2 < total);
  Alcotest.(check int) "inputs preserved" (A.num_inputs m) (A.num_inputs m2);
  (match outs with
   | [ k; nk ] ->
     Alcotest.(check bool) "complement preserved" true (nk = A.neg k);
     for mask = 0 to 7 do
       let ins = Array.init 3 (fun i -> mask land (1 lsl i) <> 0) in
       Alcotest.(check bool) "cleanup preserves function"
         (A.eval m ins keep) (A.eval m2 ins k)
     done
   | _ -> Alcotest.fail "two outputs expected")

let session_cnf_incremental () =
  let c = Circuit.Generators.ripple_adder ~bits:3 in
  let m, outs = A.of_netlist c in
  let scnf = A.Session_cnf.create m in
  let sess = A.Session_cnf.session scnf in
  Alcotest.(check int) "lazy: nothing emitted" 0
    (A.Session_cnf.emitted_nodes scnf);
  let (_, o0) = List.hd outs in
  let l0 = A.Session_cnf.lit_of scnf o0 in
  let emitted_one = A.Session_cnf.emitted_nodes scnf in
  Alcotest.(check bool) "cone emitted" true (emitted_one > 0);
  Alcotest.(check bool) "only the cone" true (emitted_one <= A.num_ands m);
  let n_in = List.length (N.inputs c) in
  let in_lits =
    Array.init n_in (fun i -> A.Session_cnf.lit_of scnf (A.input m i))
  in
  (* a second touch of an emitted node adds no variable and no clause *)
  let nvars = Sat.Session.nvars sess in
  Alcotest.(check bool) "re-touch: same literal" true
    (A.Session_cnf.lit_of scnf o0 = l0);
  Alcotest.(check int) "re-touch: nothing emitted" emitted_one
    (A.Session_cnf.emitted_nodes scnf);
  Alcotest.(check int) "re-touch: no new variable" nvars
    (Sat.Session.nvars sess);
  let assume_inputs ins =
    List.init n_in (fun i ->
        if ins.(i) then in_lits.(i) else Cnf.Lit.negate in_lits.(i))
  in
  let rng = Sat.Rng.create 8 in
  (* definitions are permanent: input assumptions alone pin the output *)
  for _ = 1 to 10 do
    let ins = Array.init n_in (fun _ -> Sat.Rng.bool rng) in
    let expected = (Circuit.Simulate.eval_outputs c ins).(0) in
    let goal = if expected then Cnf.Lit.negate l0 else l0 in
    match Sat.Session.solve ~assumptions:(goal :: assume_inputs ins) sess with
    | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ -> ()
    | _ -> Alcotest.fail "cone clauses must pin the output"
  done;
  (* the manager grows after a solve: new nodes on top of emitted ones
     are emitted on their first [lit_of] and agree with [eval] *)
  let o = Array.of_list (List.map snd outs) in
  let x = A.xor m o.(0) o.(1) in
  let top = A.or_ m (A.and_ m x (A.neg o.(2))) (A.input m 0) in
  let before = A.Session_cnf.emitted_nodes scnf in
  let lt = A.Session_cnf.lit_of scnf top in
  Alcotest.(check bool) "grown cone emitted" true
    (A.Session_cnf.emitted_nodes scnf > before);
  for _ = 1 to 20 do
    let ins = Array.init n_in (fun _ -> Sat.Rng.bool rng) in
    match Sat.Session.solve ~assumptions:(assume_inputs ins) sess with
    | Sat.Types.Sat model ->
      let v = Cnf.Lit.var lt in
      let value = if Cnf.Lit.is_pos lt then model.(v) else not model.(v) in
      Alcotest.(check bool) "grown node matches eval" (A.eval m ins top) value
    | _ -> Alcotest.fail "input assumptions alone must be satisfiable"
  done

(* every variable [lit_of] allocates starts at the solver's activity
   ceiling, and no saved phase moves *)
let session_cnf_seeds_ceiling () =
  let a = Circuit.Generators.ripple_adder ~bits:4 in
  let b = Circuit.Generators.kogge_stone_adder ~bits:4 in
  let m, pairs = A.merge_netlists a b in
  let scnf = A.Session_cnf.create m in
  let sess = A.Session_cnf.session scnf in
  let raw = Sat.Session.raw sess in
  (* refute every differing output pair so conflicts bump activities,
     then leave a satisfying assignment behind in the saved phases *)
  let differing = List.filter (fun (x, y) -> x <> y) pairs in
  List.iter
    (fun (x, y) ->
       let lx = A.Session_cnf.lit_of scnf x
       and ly = A.Session_cnf.lit_of scnf y in
       match Sat.Session.solve ~assumptions:[ lx; Cnf.Lit.negate ly ] sess with
       | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ -> ()
       | _ -> Alcotest.fail "adder outputs are equivalent")
    differing;
  (match Sat.Session.solve sess with
   | Sat.Types.Sat _ -> ()
   | _ -> Alcotest.fail "the definitions alone are satisfiable");
  Alcotest.(check bool) "the solves hit conflicts" true
    ((Sat.Session.cumulative_stats sess).Sat.Types.conflicts > 0);
  let n0 = Sat.Session.nvars sess in
  let phases = Array.init n0 (Sat.Cdcl.saved_phase raw) in
  let old_max = ref 0. in
  for v = 0 to n0 - 1 do
    old_max := Float.max !old_max (Sat.Cdcl.var_activity raw v)
  done;
  Alcotest.(check bool) "activities were bumped" true (!old_max > 0.);
  (* a new cone on top of the emitted outputs *)
  let x, y = List.hd differing in
  ignore (A.Session_cnf.lit_of scnf (A.xor m (A.and_ m x (A.input m 1)) y));
  let n1 = Sat.Session.nvars sess in
  Alcotest.(check bool) "new variables allocated" true (n1 > n0);
  let ceiling = ref 0. in
  for v = 0 to n1 - 1 do
    ceiling := Float.max !ceiling (Sat.Cdcl.var_activity raw v)
  done;
  for v = n0 to n1 - 1 do
    Alcotest.(check (float 0.)) "new variable at the ceiling" !ceiling
      (Sat.Cdcl.var_activity raw v);
    Alcotest.(check bool) "new variable keeps the default phase" false
      (Sat.Cdcl.saved_phase raw v)
  done;
  Alcotest.(check bool) "old phases untouched" true
    (Array.for_all Fun.id
       (Array.mapi (fun v ph -> Sat.Cdcl.saved_phase raw v = ph) phases));
  Alcotest.(check bool) "some old phase is true" true
    (Array.exists Fun.id phases)

let suite =
  [
    Th.case "constants" constants_and_identities;
    Th.case "hash consing" hash_consing;
    Th.case "eval" eval_semantics;
    Th.case "netlist roundtrip" netlist_roundtrip;
    Th.case "merge sharing" merge_shares_structure;
    Th.case "cnf translation" cnf_translation;
    Th.case "aig cec" aig_based_cec;
    Th.case "two-level rewriting" two_level_rewriting;
    Th.case "rewriting semantics" rewriting_preserves_semantics;
    Th.case "sim words" sim_words_parallel;
    Th.case "cleanup" cleanup_sweeps_dangling;
    Th.case "session cnf" session_cnf_incremental;
    Th.case "session cnf seeds the activity ceiling" session_cnf_seeds_ceiling;
  ]
