module N = Circuit.Netlist
module Lit = Cnf.Lit
module Scnf = Aig.Session_cnf

type phase_times = {
  simulate_s : float;
  refine_s : float;
  prove_s : float;
  total_s : float;
}

type stats = {
  aig_nodes : int;
  fraig_nodes : int;
  simulation_words : int;
  classes : int;
  candidates : int;
  merges : int;
  refuted : int;
  skipped : int;
  refinement_rounds : int;
  sat_calls : int;
  decisions : int;
  conflicts : int;
}

type report = {
  verdict : Verdict.t;
  stats : stats;
  times : phase_times;
  solver_stats : Sat.Types.stats option;
}

let word_mask = (1 lsl Circuit.Simulate.word_width) - 1

let empty_stats =
  { aig_nodes = 0; fraig_nodes = 0; simulation_words = 0; classes = 0;
    candidates = 0; merges = 0; refuted = 0; skipped = 0;
    refinement_rounds = 0; sat_calls = 0; decisions = 0; conflicts = 0 }

let check ?(config = Sat.Types.default) ?(words = 4) ?(seed = 77)
    ?(candidate_conflicts = 20_000) ?(jobs = 1) ?metrics ?trace c1 c2 =
  let t_start = Unix.gettimeofday () in
  let words = max 1 words in
  let sim_t = ref 0. and refine_t = ref 0. and prove_t = ref 0. in
  let timed acc name f =
    let t0 = Unix.gettimeofday () in
    let r =
      match metrics with Some m -> Sat.Metrics.time m name f | None -> f ()
    in
    acc := !acc +. (Unix.gettimeofday () -. t0);
    r
  in
  let finish ?solver_stats verdict stats =
    let total = Unix.gettimeofday () -. t_start in
    Option.iter
      (fun m ->
         let add name v = Sat.Metrics.incr ~by:v (Sat.Metrics.counter m name) in
         add "sweep/classes" stats.classes;
         add "sweep/candidates" stats.candidates;
         add "sweep/merges" stats.merges;
         add "sweep/refuted" stats.refuted;
         add "sweep/skipped" stats.skipped;
         add "sweep/sat_calls" stats.sat_calls;
         add "sweep/refinement_rounds" stats.refinement_rounds;
         add "sweep/simulation_words" stats.simulation_words;
         Sat.Metrics.set_gauge
           (Sat.Metrics.gauge m "sweep/aig_nodes")
           (float_of_int stats.aig_nodes);
         Sat.Metrics.set_gauge
           (Sat.Metrics.gauge m "sweep/fraig_nodes")
           (float_of_int stats.fraig_nodes))
      metrics;
    {
      verdict;
      stats;
      times =
        { simulate_s = !sim_t; refine_s = !refine_t; prove_s = !prove_t;
          total_s = total };
      solver_stats;
    }
  in
  if List.length (N.inputs c1) <> List.length (N.inputs c2)
     || List.length (N.outputs c1) <> List.length (N.outputs c2)
  then finish (Verdict.Inequivalent [||]) empty_stats
  else begin
    (* 1. structural phase: hash both circuits into one AIG over shared
       inputs (common logic merges for free, the two-level rules do a
       bounded cleanup) *)
    let old_man, out_pairs = Aig.merge_netlists c1 c2 in
    let n_old = Aig.node_count old_man in
    let n_inputs = List.length (N.inputs c1) in
    let rng = Sat.Rng.create seed in
    (* 2. the functionally reduced AIG under construction, and the lazy
       per-node CNF session behind the candidate proofs *)
    let nm = Aig.create () in
    for _ = 1 to n_inputs do ignore (Aig.add_input nm) done;
    let scnf = Scnf.create ~config nm in
    let sess = Scnf.session scnf in
    Option.iter (fun m -> Sat.Session.attach_metrics sess m) metrics;
    Option.iter (fun tr -> Sat.Session.set_tracer sess (Some tr)) trace;
    (* input variables exist up front so counterexample models always
       cover the primary inputs *)
    for i = 0 to n_inputs - 1 do
      ignore (Scnf.lit_of scnf (Aig.input nm i))
    done;
    (* a counterexample model's value for primary input [i] *)
    let input_value model i = Scnf.value scnf model (Aig.input nm i) in
    (* --- signatures: one flat column per simulation word ---------------- *)
    (* [(!cols).(w).(id)] packs node [id]'s values under the 62 patterns
       of simulation word [w]; the columns and the per-node arrays share
       the capacity [!cap], grown by doubling *)
    let cap = ref (max 64 (2 * n_old)) in
    let cols : int array array ref = ref [||] in
    let merged : Aig.lit option array ref = ref (Array.make !cap None) in
    let seen = ref (Array.make !cap false) in
    let grow_to n =
      if n > !cap then begin
        let c = max n (2 * !cap) in
        let grow a fill =
          let b = Array.make c fill in
          Array.blit a 0 b 0 !cap;
          b
        in
        cols := Array.map (fun col -> grow col 0) !cols;
        merged := grow !merged None;
        seen := grow !seen false;
        cap := c
      end
    in
    let add_column () = cols := Array.append !cols [| Array.make !cap 0 |] in
    (* simulates the whole fraig graph under [inputs] into the last column *)
    let simulate_last inputs =
      let vals = Aig.sim_words nm inputs in
      Array.blit vals 0 (!cols).(Array.length !cols - 1) 0 (Array.length vals)
    in
    let compute_sig v =
      match Aig.view nm v with
      | Aig.And (a, b) ->
        let na = Aig.node_of a and nb = Aig.node_of b in
        let fa = if Aig.is_complemented a then word_mask else 0 in
        let fb = if Aig.is_complemented b then word_mask else 0 in
        Array.iter
          (fun col -> col.(v) <- (col.(na) lxor fa) land (col.(nb) lxor fb))
          !cols
      | Aig.Const | Aig.Input _ -> assert false
    in
    (* the phase reads seed word 0 and class keys read the seed words
       only, so neither ever changes *)
    let phase id = (!cols).(0).(id) land 1 = 1 in
    (* --- candidate classes --------------------------------------------- *)
    (* a class holds the registered nodes whose phase-canonical seed
       columns hash alike, oldest first; registered nodes are never
       merged, so the representative of [v] is the oldest member whose
       full canonical signature, every column, equals [v]'s *)
    let classes : (int, int Sat.Vec.t) Hashtbl.t = Hashtbl.create 256 in
    let classes_formed = ref 0 in
    (* a class counts once its representative meets its first challenger
       (merged challengers never enter the class, so its size alone
       undercounts) *)
    let challenged = Hashtbl.create 64 in
    let class_of v =
      let flip = if phase v then word_mask else 0 in
      let key = ref 0 in
      for w = 0 to words - 1 do
        key := (!key * 0x100000001b3) lxor ((!cols).(w).(v) lxor flip)
      done;
      match Hashtbl.find_opt classes !key with
      | Some members -> members
      | None ->
        let members = Sat.Vec.create ~capacity:1 ~dummy:0 () in
        Hashtbl.replace classes !key members;
        members
    in
    let same_sig v r =
      let flip = if phase v <> phase r then word_mask else 0 in
      Array.for_all (fun col -> col.(v) lxor col.(r) = flip) !cols
    in
    let register v = Sat.Vec.push (class_of v) v in
    let lookup v =
      let members = class_of v in
      let rec go i =
        if i >= Sat.Vec.size members then None
        else
          let r = Sat.Vec.get members i in
          if same_sig v r then Some r else go (i + 1)
      in
      go 0
    in
    (* --- counters ------------------------------------------------------ *)
    let candidates = ref 0 and merges = ref 0 and refuted = ref 0 in
    let skipped = ref 0 and rounds = ref 0 and sat_calls = ref 0 in
    let solve_with ?max_conflicts assumptions =
      incr sat_calls;
      timed prove_t "sweep/prove" (fun () ->
          Sat.Session.solve ~assumptions ?max_conflicts sess)
    in
    (* counterexamples pack into the open word: the k-th one sets bit k
       of its input patterns, the other bits keep the random patterns
       drawn when the word opened, and only that column is resimulated;
       a new word opens after [word_width] counterexamples *)
    let open_inputs = ref [||] in
    let packed = ref Circuit.Simulate.word_width in
    let refine model =
      incr rounds;
      timed sim_t "sweep/simulate" (fun () ->
          if !packed = Circuit.Simulate.word_width then begin
            open_inputs := Circuit.Simulate.random_words rng n_inputs;
            add_column ();
            packed := 0
          end;
          let bit = 1 lsl !packed in
          Array.iteri
            (fun i w ->
               (!open_inputs).(i) <-
                 (if input_value model i then w lor bit else w land lnot bit))
            !open_inputs;
          incr packed;
          simulate_last !open_inputs)
    in
    let prove r v pol =
      incr candidates;
      let lr = Scnf.lit_of scnf (Aig.of_node r) in
      let lv = Scnf.lit_of scnf (Aig.of_node v) in
      let lv' = if pol then Lit.negate lv else lv in
      let query assumptions =
        match solve_with ~max_conflicts:candidate_conflicts assumptions with
        | Sat.Types.Sat model -> `Sat model
        | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ -> `Unsat
        | Sat.Types.Unknown _ -> `Unknown
      in
      match query [ lr; Lit.negate lv' ] with
      | `Sat model -> `Refuted model
      | `Unknown -> `Unknown
      | `Unsat -> (
          match query [ Lit.negate lr; lv' ] with
          | `Sat model -> `Refuted model
          | `Unknown -> `Unknown
          | `Unsat -> `Proved)
    in
    (* prove-or-split loop for one fresh node; every refutation writes a
       pattern that separates the node from its current representative
       for good (a packed bit is never rewritten), so this terminates *)
    let rec classify v =
      match timed refine_t "sweep/refine" (fun () -> lookup v) with
      | Some r -> (
          if not (Hashtbl.mem challenged r) then begin
            Hashtbl.add challenged r ();
            incr classes_formed
          end;
          let pol = phase v <> phase r in
          match prove r v pol with
          | `Proved ->
            incr merges;
            let rt = Aig.of_node r in
            let target = if pol then Aig.neg rt else rt in
            (!merged).(v) <- Some target;
            Some target
          | `Refuted model ->
            incr refuted;
            refine model;
            classify v
          | `Unknown ->
            incr skipped;
            register v;
            None)
      | None ->
        register v;
        None
    in
    (* merged-away nodes can resurface through a structural-hash hit *)
    let rec resolve e =
      match (!merged).(Aig.node_of e) with
      | Some t -> resolve (if Aig.is_complemented e then Aig.neg t else t)
      | None -> e
    in
    (* 3. seed the classes: random simulation over constant and inputs *)
    timed sim_t "sweep/simulate" (fun () ->
        for _ = 1 to words do
          add_column ();
          simulate_last (Circuit.Simulate.random_words rng n_inputs)
        done);
    grow_to (Aig.node_count nm);
    timed refine_t "sweep/refine" (fun () ->
        for id = 0 to Aig.node_count nm - 1 do
          (!seen).(id) <- true;
          register id
        done);
    (* 4. fraig loop: reconstruct the merged AIG inputs-outward over
       representatives, proving or splitting every candidate *)
    let repr = Array.make (max 1 n_old) Aig.const_false in
    let map_edge l =
      let e = repr.(Aig.node_of l) in
      if Aig.is_complemented l then Aig.neg e else e
    in
    let known = ref (Aig.node_count nm) in
    for id = 0 to n_old - 1 do
      match Aig.view old_man id with
      | Aig.Const -> repr.(id) <- Aig.const_true
      | Aig.Input k -> repr.(id) <- Aig.input nm k
      | Aig.And (a, b) ->
        let cand = Aig.and_ nm (map_edge a) (map_edge b) in
        let nnow = Aig.node_count nm in
        if nnow > !known then begin
          grow_to nnow;
          timed sim_t "sweep/simulate" (fun () ->
              for v = !known to nnow - 1 do
                compute_sig v
              done);
          known := nnow
        end;
        let e = resolve cand in
        let v = Aig.node_of e in
        repr.(id) <-
          (match Aig.view nm v with
           | Aig.And _ when not (!seen).(v) ->
             (!seen).(v) <- true;
             (match classify v with
              | Some t -> if Aig.is_complemented e then Aig.neg t else t
              | None -> e)
           | Aig.And _ | Aig.Const | Aig.Input _ -> e)
    done;
    (* 5. outputs: pairs usually collapse to the same fraig edge; the
       residue falls to final queries under the caller's budgets only *)
    let remaining =
      List.filter_map
        (fun (a, b) ->
           let ea = resolve (map_edge a) and eb = resolve (map_edge b) in
           if ea = eb then None else Some (ea, eb))
        out_pairs
    in
    let cex model = Array.init n_inputs (input_value model) in
    (* With [jobs > 1] the final queries run under the candidate budget
       and a residual hard pair escalates to cube-and-conquer on a
       standalone cone CNF: the two output cones of the fraiged AIG are
       Tseitin-encoded over the primary inputs (vars 0..n_inputs-1),
       the disequality of the pair asserted, and the miter decomposed
       across the worker domains. *)
    let cone_miter ea eb =
      let f, lit_of = Aig.to_cnf nm ~roots:[ ea; eb ] in
      let a = lit_of ea and b = lit_of eb in
      Cnf.Formula.add_clause_l f [ a; b ];
      Cnf.Formula.add_clause_l f [ Lit.negate a; Lit.negate b ];
      f
    in
    let conquer_pair ea eb =
      Option.iter
        (fun m -> Sat.Metrics.incr (Sat.Metrics.counter m "sweep/cube_fallbacks"))
        metrics;
      let options =
        { Sat.Conquer.default_options with
          Sat.Conquer.jobs;
          config = { config with Sat.Types.proof_logging = false } }
      in
      timed prove_t "sweep/prove" (fun () ->
          (Sat.Conquer.solve ?metrics ?trace ~options (cone_miter ea eb))
            .Sat.Conquer.outcome)
    in
    let final_budget = if jobs > 1 then Some candidate_conflicts else None in
    let rec outputs_equal = function
      | [] -> Verdict.Equivalent
      | (ea, eb) :: rest -> (
          let fallback () =
            match conquer_pair ea eb with
            | Sat.Types.Sat model ->
              Verdict.Inequivalent
                (Array.init n_inputs (fun i ->
                     i < Array.length model && model.(i)))
            | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ ->
              outputs_equal rest
            | Sat.Types.Unknown why -> Verdict.Inconclusive why
          in
          let la = Scnf.lit_of scnf ea and lb = Scnf.lit_of scnf eb in
          match solve_with ?max_conflicts:final_budget [ la; Lit.negate lb ]
          with
          | Sat.Types.Sat model -> Verdict.Inequivalent (cex model)
          | Sat.Types.Unknown _ when jobs > 1 -> fallback ()
          | Sat.Types.Unknown _ -> Verdict.Inconclusive "budget"
          | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ -> (
              match
                solve_with ?max_conflicts:final_budget [ Lit.negate la; lb ]
              with
              | Sat.Types.Sat model -> Verdict.Inequivalent (cex model)
              | Sat.Types.Unknown _ when jobs > 1 -> fallback ()
              | Sat.Types.Unknown _ -> Verdict.Inconclusive "budget"
              | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ ->
                outputs_equal rest))
    in
    let verdict = outputs_equal remaining in
    let st = Sat.Session.cumulative_stats sess in
    finish ~solver_stats:st verdict
      {
        aig_nodes = n_old;
        fraig_nodes = Aig.node_count nm - !merges;
        simulation_words = Array.length !cols;
        classes = !classes_formed;
        candidates = !candidates;
        merges = !merges;
        refuted = !refuted;
        skipped = !skipped;
        refinement_rounds = !rounds;
        sat_calls = !sat_calls;
        decisions = st.Sat.Types.decisions;
        conflicts = st.Sat.Types.conflicts;
      }
  end
