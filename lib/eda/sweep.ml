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
    ?(candidate_conflicts = 20_000) ?(jobs = 1) ?(guide = false) ?metrics
    ?trace c1 c2 =
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
    let input_lits =
      Array.init n_inputs (fun i -> Scnf.lit_of scnf (Aig.input nm i))
    in
    (* --- signatures: packed simulation words per fraig node ------------- *)
    let cap = ref (max 64 (2 * n_old)) in
    let sigs = ref (Array.make !cap [||]) in
    let merged : Aig.lit option array ref = ref (Array.make !cap None) in
    let seen = ref (Array.make !cap false) in
    let fanout = ref (Array.make !cap 0) in
    let grow_to n =
      if n > !cap then begin
        let c = max n (2 * !cap) in
        let s = Array.make c [||] in
        Array.blit !sigs 0 s 0 !cap;
        let mg = Array.make c None in
        Array.blit !merged 0 mg 0 !cap;
        let sn = Array.make c false in
        Array.blit !seen 0 sn 0 !cap;
        let fo = Array.make c 0 in
        Array.blit !fanout 0 fo 0 !cap;
        sigs := s;
        merged := mg;
        seen := sn;
        fanout := fo;
        cap := c
      end
    in
    (* fanout watermark: nodes below [fo_known] have contributed their
       fanin references to the counts *)
    let fo_known = ref 0 in
    let account_fanouts () =
      let n = Aig.node_count nm in
      grow_to n;
      for v = !fo_known to n - 1 do
        match Aig.view nm v with
        | Aig.And (a, b) ->
          let fo = !fanout in
          fo.(Aig.node_of a) <- fo.(Aig.node_of a) + 1;
          fo.(Aig.node_of b) <- fo.(Aig.node_of b) + 1
        | Aig.Const | Aig.Input _ -> ()
      done;
      fo_known := n
    in
    let popcount w =
      let rec go w acc =
        if w = 0 then acc else go (w lsr 1) (acc + (w land 1))
      in
      go w 0
    in
    (* seed the session's branching heuristic for variables the lazy CNF
       allocated since the last call: signal probability straight from
       the sweep's own simulation signatures, fanout from the counts
       above (docs/TUNING.md "Seeding from observations") *)
    let apply_guide nwords =
      if guide then begin
        account_fanouts ();
        Scnf.guide scnf
          ~prob_of:(fun id ->
            let s = (!sigs).(id) in
            let n = min nwords (Array.length s) in
            if n = 0 then 0.5
            else begin
              let ones = ref 0 in
              for w = 0 to n - 1 do
                ones := !ones + popcount s.(w)
              done;
              float_of_int !ones
              /. float_of_int (n * Circuit.Simulate.word_width)
            end)
          ~fanout_of:(fun id -> (!fanout).(id))
      end
    in
    let nwords = ref 0 in
    let sim_words_count = ref 0 in
    let append_sim_word input_word =
      let vals = Aig.sim_words nm input_word in
      grow_to (Array.length vals);
      for id = 0 to Array.length vals - 1 do
        let old = (!sigs).(id) in
        let a = Array.make (!nwords + 1) 0 in
        Array.blit old 0 a 0 !nwords;
        a.(!nwords) <- vals.(id);
        (!sigs).(id) <- a
      done;
      incr nwords;
      incr sim_words_count
    in
    let compute_sig v =
      match Aig.view nm v with
      | Aig.And (a, b) ->
        let sa = (!sigs).(Aig.node_of a) and sb = (!sigs).(Aig.node_of b) in
        let ca = Aig.is_complemented a and cb = Aig.is_complemented b in
        Array.init !nwords (fun w ->
            let va = if ca then lnot sa.(w) land word_mask else sa.(w) in
            let vb = if cb then lnot sb.(w) land word_mask else sb.(w) in
            va land vb)
      | Aig.Const | Aig.Input _ -> assert false
    in
    let phase id = ((!sigs).(id)).(0) land 1 = 1 in
    let canon id =
      let a = (!sigs).(id) in
      let ph = a.(0) land 1 = 1 in
      let rec go w =
        if w >= !nwords then []
        else (if ph then lnot a.(w) land word_mask else a.(w)) :: go (w + 1)
      in
      go 0
    in
    (* --- candidate classes --------------------------------------------- *)
    let table : (int list, int list ref) Hashtbl.t = Hashtbl.create 256 in
    let inserted = ref [] in
    let dirty = ref false in
    let classes_formed = ref 0 in
    (* a class counts once its representative meets its first challenger
       (merged challengers never enter the bucket, so bucket size alone
       undercounts) *)
    let challenged = Hashtbl.create 64 in
    let insert v =
      let key = canon v in
      match Hashtbl.find_opt table key with
      | Some b -> b := !b @ [ v ]
      | None -> Hashtbl.replace table key (ref [ v ])
    in
    let register v =
      inserted := v :: !inserted;
      insert v
    in
    let rebuild () =
      Hashtbl.reset table;
      List.iter
        (fun v -> if (!merged).(v) = None then insert v)
        (List.rev !inserted)
    in
    let lookup v =
      if !dirty then begin
        timed refine_t "sweep/refine" rebuild;
        dirty := false
      end;
      Hashtbl.find_opt table (canon v)
    in
    (* --- counters ------------------------------------------------------ *)
    let candidates = ref 0 and merges = ref 0 and refuted = ref 0 in
    let skipped = ref 0 and rounds = ref 0 and sat_calls = ref 0 in
    let solve_with ?max_conflicts assumptions =
      incr sat_calls;
      timed prove_t "sweep/prove" (fun () ->
          Sat.Session.solve ~assumptions ?max_conflicts sess)
    in
    (* a counterexample becomes one more simulation word: its pattern in
       bit 0, fresh random patterns in the remaining 61 bits *)
    let refine model =
      incr rounds;
      timed sim_t "sweep/simulate" (fun () ->
          let word = Circuit.Simulate.random_words rng n_inputs in
          for i = 0 to n_inputs - 1 do
            let bit =
              let l = input_lits.(i) in
              let var = Lit.var l in
              if var < Array.length model then
                if Lit.is_pos l then model.(var) else not model.(var)
              else Sat.Rng.bool rng
            in
            word.(i) <- word.(i) land lnot 1 lor (if bit then 1 else 0)
          done;
          append_sim_word word);
      dirty := true
    in
    let prove r v pol =
      incr candidates;
      let lr = Scnf.lit_of scnf (Aig.of_node r) in
      let lv = Scnf.lit_of scnf (Aig.of_node v) in
      let lv' = if pol then Lit.negate lv else lv in
      apply_guide !nwords;
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
    (* prove-or-split loop for one fresh node; every refutation strictly
       separates the node from its current representative, so this
       terminates *)
    let rec classify v =
      match lookup v with
      | Some bucket -> (
          match
            List.find_opt (fun r -> r <> v && (!merged).(r) = None) !bucket
          with
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
          append_sim_word (Circuit.Simulate.random_words rng n_inputs)
        done);
    grow_to (Aig.node_count nm);
    timed refine_t "sweep/refine" (fun () ->
        for id = 0 to Aig.node_count nm - 1 do
          (!seen).(id) <- true;
          register id
        done);
    apply_guide !nwords;
    (* 4. fraig loop: rebuild the merged AIG inputs-outward over
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
                (!sigs).(v) <- compute_sig v
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
    let cex model =
      Array.init n_inputs (fun i ->
          let l = input_lits.(i) in
          let var = Lit.var l in
          var < Array.length model
          && (if Lit.is_pos l then model.(var) else not model.(var)))
    in
    (* With [jobs > 1] the final queries run under the candidate budget
       and a residual hard pair escalates to cube-and-conquer on a
       standalone cone CNF: the two output cones of the fraiged AIG are
       Tseitin-encoded over the primary inputs (vars 0..n_inputs-1),
       the disequality of the pair asserted, and the miter decomposed
       across the worker domains. *)
    let cone_miter ea eb =
      let f = Cnf.Formula.create ~nvars:n_inputs () in
      let var_of = Hashtbl.create 64 in
      let rec visit id =
        match Hashtbl.find_opt var_of id with
        | Some v -> v
        | None ->
          let v =
            match Aig.view nm id with
            | Aig.Input k -> k
            | Aig.Const -> Cnf.Formula.fresh_var f
            | Aig.And (a, b) ->
              let la = lit_of_edge a and lb = lit_of_edge b in
              let v = Cnf.Formula.fresh_var f in
              Cnf.Formula.add_clause_l f [ Lit.neg_of_var v; la ];
              Cnf.Formula.add_clause_l f [ Lit.neg_of_var v; lb ];
              Cnf.Formula.add_clause_l f
                [ Lit.pos v; Lit.negate la; Lit.negate lb ];
              v
          in
          Hashtbl.replace var_of id v;
          v
      and lit_of_edge e =
        let v = visit (Aig.node_of e) in
        if Aig.is_complemented e then Lit.neg_of_var v else Lit.pos v
      in
      let a = lit_of_edge ea and b = lit_of_edge eb in
      (* pin the constant node in case a cone reaches it *)
      if Hashtbl.mem var_of (Aig.node_of Aig.const_true) then
        Cnf.Formula.add_clause_l f [ lit_of_edge Aig.const_true ];
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
          config = { config with Sat.Types.proof_logging = false };
          metrics;
          trace }
      in
      timed prove_t "sweep/prove" (fun () ->
          (Sat.Conquer.solve ~options (cone_miter ea eb)).Sat.Conquer.outcome)
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
          apply_guide !nwords;
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
        simulation_words = !sim_words_count;
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
