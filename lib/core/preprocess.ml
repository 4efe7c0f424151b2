module Lit = Cnf.Lit
module Clause = Cnf.Clause

type stats = {
  mutable units : int;
  mutable pures : int;
  mutable subsumed : int;
  mutable strengthened : int;
  mutable failed_literals : int;
  mutable eliminated : int;
  mutable elim_clauses_removed : int;
  mutable elim_resolvents : int;
  mutable rounds : int;
}

type elimination = {
  evar : int;
  pos : Clause.t list;
  neg : Clause.t list;
}

type simplified = {
  formula : Cnf.Formula.t;
  fix : (int * bool) list;
  elim : elimination list;
  stats : stats;
}

type result = Unsat | Simplified of simplified

exception Found_unsat

type state = {
  nvars : int;
  mutable clauses : Clause.t list;
  assign : int array; (* var -> -1/0/1 *)
  mutable fix : (int * bool) list;
  mutable elim : elimination list; (* newest first *)
  emit : Types.proof_step -> unit; (* DRAT sink; a no-op without ?proof *)
  st : stats;
}

let lit_value s l =
  let a = s.assign.(Lit.var l) in
  if a < 0 then -1 else a lxor (l land 1)

let fix_lit s reason l =
  let v = Lit.var l in
  match lit_value s l with
  | 1 -> ()
  | 0 -> raise Found_unsat
  | _ ->
    (* Unit and failed-literal fixes are RUP over the active clause set
       and enter the proof; pure literals are only RAT, so [run] rejects
       [pures] when a proof is requested. *)
    (match reason with
     | `Unit | `Failed -> s.emit (Types.Add (Clause.of_list [ l ]))
     | `Pure -> ());
    s.assign.(v) <- (if Lit.is_pos l then 1 else 0);
    s.fix <- (v, Lit.is_pos l) :: s.fix;
    (match reason with
     | `Unit -> s.st.units <- s.st.units + 1
     | `Pure -> s.st.pures <- s.st.pures + 1
     | `Failed -> s.st.failed_literals <- s.st.failed_literals + 1)

(* Remove satisfied clauses and false literals; fix unit clauses.
   Returns true when anything changed. *)
let simplify_clauses s =
  let changed = ref false in
  let rec stable () =
    let local = ref false in
    let keep c =
      let lits = Clause.to_list c in
      if List.exists (fun l -> lit_value s l = 1) lits then begin
        s.emit (Types.Delete c);
        local := true;
        None
      end
      else
        let free = List.filter (fun l -> lit_value s l <> 0) lits in
        match free with
        | [] -> raise Found_unsat
        | [ l ] ->
          fix_lit s `Unit l;
          s.emit (Types.Delete c);
          local := true;
          None
        | _ ->
          if List.length free < List.length lits then begin
            local := true;
            (* the stripped clause is RUP while the original is active:
               add first, then delete *)
            s.emit (Types.Add (Clause.of_list free));
            s.emit (Types.Delete c)
          end;
          Some (Clause.of_list free)
    in
    s.clauses <- List.filter_map keep s.clauses;
    if !local then begin
      changed := true;
      stable ()
    end
  in
  stable ();
  !changed

let pure_literals s =
  let occ = Array.make (2 * max 1 s.nvars) 0 in
  List.iter
    (fun c -> List.iter (fun l -> occ.(l) <- occ.(l) + 1) (Clause.to_list c))
    s.clauses;
  let changed = ref false in
  for v = 0 to s.nvars - 1 do
    if s.assign.(v) < 0 then begin
      let p = occ.(Lit.pos v) and q = occ.(Lit.neg_of_var v) in
      if p > 0 && q = 0 then begin
        fix_lit s `Pure (Lit.pos v);
        changed := true
      end
      else if q > 0 && p = 0 then begin
        fix_lit s `Pure (Lit.neg_of_var v);
        changed := true
      end
    end
  done;
  !changed

let occurrence_table s =
  let occ = Array.make (2 * max 1 s.nvars) [] in
  List.iteri
    (fun ci c -> List.iter (fun l -> occ.(l) <- ci :: occ.(l)) (Clause.to_list c))
    s.clauses;
  occ

let subsume_pass s =
  let arr = Array.of_list s.clauses in
  let alive = Array.make (Array.length arr) true in
  let occ = occurrence_table s in
  let changed = ref false in
  Array.iteri
    (fun ci c ->
       if alive.(ci) then begin
         (* candidates share c's rarest literal *)
         let rare =
           Clause.to_list c
           |> List.fold_left
                (fun best l ->
                   match best with
                   | Some b when List.length occ.(b) <= List.length occ.(l) -> best
                   | Some _ | None -> Some l)
                None
         in
         match rare with
         | None -> ()
         | Some l ->
           List.iter
             (fun cj ->
                if cj <> ci && alive.(cj) && Clause.size c <= Clause.size arr.(cj)
                   && Clause.subsumes c arr.(cj)
                then begin
                  alive.(cj) <- false;
                  s.emit (Types.Delete arr.(cj));
                  s.st.subsumed <- s.st.subsumed + 1;
                  changed := true
                end)
             occ.(l)
       end)
    arr;
  s.clauses <-
    Array.to_list arr
    |> List.filteri (fun i _ -> alive.(i));
  !changed

(* self-subsuming resolution: if d contains (c \ {l}) and ~l, drop ~l
   from d — the resolvent of c and d on l strengthens d *)
let strengthen_pass s =
  let arr = Array.of_list s.clauses |> Array.map (fun c -> ref c) in
  let occ = Array.make (2 * max 1 s.nvars) [] in
  Array.iteri
    (fun ci rc ->
       List.iter (fun l -> occ.(l) <- ci :: occ.(l)) (Clause.to_list !rc))
    arr;
  let changed = ref false in
  Array.iteri
    (fun ci rc ->
       List.iter
         (fun l ->
            let rest =
              List.filter (fun m -> not (Lit.equal m l)) (Clause.to_list !rc)
            in
            List.iter
              (fun cj ->
                 if cj <> ci then begin
                   let d = !(arr.(cj)) in
                   if Clause.mem (Lit.negate l) d
                      && List.for_all (fun m -> Clause.mem m d) rest
                   then begin
                     let d' =
                       Clause.of_list
                         (List.filter
                            (fun m -> not (Lit.equal m (Lit.negate l)))
                            (Clause.to_list d))
                     in
                     (* the resolvent is RUP while both parents are
                        active: add it before deleting the weaker one *)
                     s.emit (Types.Add d');
                     s.emit (Types.Delete d);
                     arr.(cj) := d';
                     s.st.strengthened <- s.st.strengthened + 1;
                     changed := true
                   end
                 end)
              occ.(Lit.negate l))
         (Clause.to_list !rc))
    arr;
  s.clauses <- Array.to_list arr |> List.map ( ! );
  !changed

(* --- bounded variable elimination ---------------------------------------- *)

(* The pass works over its own growable clause store with per-literal
   occurrence lists.  Clause slots are immutable once written: removing or
   strengthening a clause kills its slot and (for strengthening) adds the
   replacement under a fresh index, so an occurrence entry [i] in
   [occ.(l)] is valid exactly while [alive.(i)] holds.  Stale entries are
   skipped on traversal — the SatELite discipline, matching the solver's
   lazy watcher deletion. *)
let bve_pass s ~frozen ~clause_cap ~occ_cap =
  let nlits = 2 * max 1 s.nvars in
  let empty = Clause.of_list [] in
  let cl = ref (Array.make (max 16 (2 * List.length s.clauses)) empty) in
  let alive = ref (Array.make (Array.length !cl) false) in
  let n = ref 0 in
  let occ = Array.make nlits [] in
  let touched = Queue.create () in
  let changed = ref false in
  let grow () =
    let cap = 2 * Array.length !cl in
    let c2 = Array.make cap empty in
    Array.blit !cl 0 c2 0 !n;
    cl := c2;
    let a2 = Array.make cap false in
    Array.blit !alive 0 a2 0 !n;
    alive := a2
  in
  let push_raw c =
    if !n = Array.length !cl then grow ();
    let i = !n in
    !cl.(i) <- c;
    !alive.(i) <- true;
    n := i + 1;
    List.iter (fun l -> occ.(l) <- i :: occ.(l)) (Clause.to_list c);
    i
  in
  let kill i =
    !alive.(i) <- false;
    s.emit (Types.Delete !cl.(i))
  in
  (* Insert a clause simplified against the current fixed assignment:
     satisfied clauses vanish, false literals are dropped, units are
     fixed, tautologies are discarded outright.  The argument's content
     must already be active in the proof (an input clause, or a
     resolvent the caller just emitted), so any simplification emits
     its replacement before deleting the original. *)
  let add ~touch c =
    let lits = Clause.to_list c in
    if (not (Clause.is_tautology c))
       && not (List.exists (fun l -> lit_value s l = 1) lits)
    then begin
      let free = List.filter (fun l -> lit_value s l <> 0) lits in
      match free with
      | [] -> raise Found_unsat
      | [ l ] ->
        fix_lit s `Unit l;
        s.emit (Types.Delete c);
        changed := true
      | _ ->
        if List.length free < List.length lits then begin
          s.emit (Types.Add (Clause.of_list free));
          s.emit (Types.Delete c)
        end;
        let i = push_raw (Clause.of_list free) in
        if touch then Queue.add i touched
    end
    else if List.length lits > 0 && not (Clause.is_tautology c) then begin
      s.emit (Types.Delete c);
      changed := true (* a satisfied clause was dropped *)
    end
  in
  (* Backward subsumption and self-subsuming resolution seeded from one
     clause — run over every resolvent the elimination loop inserts. *)
  let backward ci =
    if !alive.(ci) then begin
      let c = !cl.(ci) in
      let lits = Clause.to_list c in
      (* subsumption candidates share c's rarest literal *)
      let rare =
        List.fold_left
          (fun best l ->
             match best with
             | Some b when List.length occ.(b) <= List.length occ.(l) -> best
             | Some _ | None -> Some l)
          None lits
      in
      (match rare with
       | None -> ()
       | Some l ->
         List.iter
           (fun cj ->
              if cj <> ci && !alive.(cj)
                 && Clause.size c <= Clause.size !cl.(cj)
                 && Clause.subsumes c !cl.(cj)
              then begin
                kill cj;
                s.st.subsumed <- s.st.subsumed + 1;
                changed := true
              end)
           occ.(l));
      (* self-subsumption: d ⊇ (c \ {l}) ∪ {¬l} loses ¬l *)
      List.iter
        (fun l ->
           if !alive.(ci) then begin
             let rest =
               List.filter (fun m -> not (Lit.equal m l)) lits
             in
             List.iter
               (fun cj ->
                  if cj <> ci && !alive.(cj) then begin
                    let d = !cl.(cj) in
                    if Clause.mem (Lit.negate l) d
                       && List.for_all (fun m -> Clause.mem m d) rest
                    then begin
                      let d' =
                        Clause.of_list
                          (List.filter
                             (fun m -> not (Lit.equal m (Lit.negate l)))
                             (Clause.to_list d))
                      in
                      (* emit the strengthened clause while both parents
                         are still active, then delete the weaker one *)
                      s.emit (Types.Add d');
                      kill cj;
                      s.st.strengthened <- s.st.strengthened + 1;
                      changed := true;
                      add ~touch:true d'
                    end
                  end)
               occ.(Lit.negate l)
           end)
        lits
    end
  in
  let drain () =
    while not (Queue.is_empty touched) do
      backward (Queue.pop touched)
    done
  in
  let try_eliminate v =
    if s.assign.(v) < 0 && not frozen.(v) then begin
      let lp = Lit.pos v and ln = Lit.neg_of_var v in
      let pos = List.filter (fun i -> !alive.(i)) occ.(lp) in
      let neg = List.filter (fun i -> !alive.(i)) occ.(ln) in
      let np = List.length pos and nn = List.length neg in
      if np + nn > 0 && np <= occ_cap && nn <= occ_cap then begin
        (* stage the resolvent set; abort if one resolvent exceeds the
           clause-size cap or the set outgrows the clauses removed *)
        let limit = np + nn in
        let resolve_pair i j =
          let ci =
            List.filter (fun l -> Lit.var l <> v) (Clause.to_list !cl.(i))
          in
          let cj =
            List.filter (fun l -> Lit.var l <> v) (Clause.to_list !cl.(j))
          in
          Clause.of_list (ci @ cj)
        in
        let stage pairs =
          let resolvents = ref [] in
          let count = ref 0 in
          let ok = ref true in
          (try
             List.iter
               (fun (i, j) ->
                  let r = resolve_pair i j in
                  if not (Clause.is_tautology r) then begin
                    if Clause.size r > clause_cap then begin
                      ok := false;
                      raise Exit
                    end;
                    incr count;
                    if !count > limit then begin
                      ok := false;
                      raise Exit
                    end;
                    resolvents := r :: !resolvents
                  end)
               pairs
           with Exit -> ());
          if !ok then Some (!resolvents, !count) else None
        in
        (* Definition substitution (SatELite): when [v] is the output of
           an AND/OR-shaped gate — one clause (p ∨ m₁ ∨ … ∨ mₖ) whose
           every [mᵢ] has a matching binary (¬p ∨ ¬mᵢ) — only gate ×
           non-gate resolvents are needed; non-gate × non-gate pairs are
           implied by them.  Tseitin-encoded netlists are full of such
           definitions, and the restricted set lets fanout variables be
           eliminated where the full product would blow the bound. *)
        let find_definition p side_p side_n =
          List.find_map
            (fun i ->
               let others =
                 List.filter (fun l -> not (Lit.equal l p))
                   (Clause.to_list !cl.(i))
               in
               if others = [] then None
               else
                 let bins =
                   List.map
                     (fun m ->
                        List.find_opt
                          (fun j ->
                             Clause.size !cl.(j) = 2
                             && List.exists (Lit.equal (Lit.negate m))
                                  (Clause.to_list !cl.(j)))
                          side_n)
                     others
                 in
                 if List.for_all Option.is_some bins then
                   Some (i, List.filter_map Fun.id bins)
                 else None)
            side_p
        in
        let substitution_pairs () =
          let pairs_for (def, bins) side_p side_n =
            let rest_n =
              List.filter (fun j -> not (List.mem j bins)) side_n
            in
            let rest_p = List.filter (fun i -> i <> def) side_p in
            List.map (fun j -> (def, j)) rest_n
            @ List.concat_map
                (fun b -> List.map (fun i -> (i, b)) rest_p)
                bins
          in
          match find_definition lp pos neg with
          | Some d -> Some (pairs_for d pos neg)
          | None -> (
              match find_definition ln neg pos with
              | Some d -> Some (pairs_for d neg pos)
              | None -> None)
        in
        let full_pairs =
          List.concat_map (fun i -> List.map (fun j -> (i, j)) neg) pos
        in
        let staged =
          match substitution_pairs () with
          | Some pairs -> stage pairs
          | None -> stage full_pairs
        in
        match staged with
        | None -> ()
        | Some (resolvents, count) ->
          (* commit: emit every resolvent into the proof while both
             parent sides are still active (each is RUP against them),
             push the removed clauses on the elimination stack
             (complete_model replays them), then swap in the
             resolvents *)
          List.iter (fun r -> s.emit (Types.Add r)) resolvents;
          s.elim <-
            { evar = v;
              pos = List.map (fun i -> !cl.(i)) pos;
              neg = List.map (fun i -> !cl.(i)) neg }
            :: s.elim;
          List.iter kill pos;
          List.iter kill neg;
          s.st.eliminated <- s.st.eliminated + 1;
          s.st.elim_clauses_removed <- s.st.elim_clauses_removed + limit;
          s.st.elim_resolvents <- s.st.elim_resolvents + count;
          List.iter (fun r -> add ~touch:true r) resolvents;
          changed := true;
          drain ()
      end
    end
  in
  List.iter (fun c -> add ~touch:false c) s.clauses;
  (* cheapest variables first: few occurrences means few resolvents *)
  let order = Array.init s.nvars (fun v -> v) in
  let cost = Array.make (max 1 s.nvars) 0 in
  for i = 0 to !n - 1 do
    if !alive.(i) then
      List.iter (fun l -> cost.(Lit.var l) <- cost.(Lit.var l) + 1)
        (Clause.to_list !cl.(i))
  done;
  Array.sort (fun a b -> Int.compare cost.(a) cost.(b)) order;
  Array.iter try_eliminate order;
  let out = ref [] in
  for i = !n - 1 downto 0 do
    if !alive.(i) then out := !cl.(i) :: !out
  done;
  s.clauses <- !out;
  !changed

let probe s =
  let solver = Cdcl.create (Cnf.Formula.of_clauses ~nvars:s.nvars s.clauses) in
  if not (Cdcl.propagate_root solver) then raise Found_unsat;
  let survives l =
    match Cdcl.probe_push solver l with
    | Cdcl.Probe_ok _ ->
      Cdcl.probe_pop solver;
      true
    | Cdcl.Probe_conflict -> false
  in
  let changed = ref false in
  let fold_back l =
    fix_lit s `Failed l;
    if not (Cdcl.probe_assert solver l) then raise Found_unsat;
    changed := true
  in
  for v = 0 to s.nvars - 1 do
    if s.assign.(v) < 0 && Cdcl.value_var solver v < 0 then begin
      let pos_ok = survives (Lit.pos v) in
      let neg_ok = survives (Lit.neg_of_var v) in
      match pos_ok, neg_ok with
      | false, false ->
        (* both phases fail: [v] is RUP (assuming ¬v propagates to a
           conflict); once added, the clause set is root-inconsistent
           and the Found_unsat handler's empty clause is RUP too *)
        s.emit (Types.Add (Clause.of_list [ Lit.pos v ]));
        raise Found_unsat
      | false, true -> fold_back (Lit.neg_of_var v)
      | true, false -> fold_back (Lit.pos v)
      | true, true -> ()
    end
  done;
  !changed

(* most occurrences per polarity of an elimination candidate *)
let elim_occ_cap = 10

let run ?(subsumption = true) ?(strengthen = true) ?pures
    ?(probe_failed_literals = false) ?(elim = true) ?(frozen = [])
    ?(elim_clause_cap = 8) ?proof f =
  (* Pure-literal fixes are RAT but not RUP, so they cannot enter the
     DRAT stream this pipeline emits: with a proof sink, [pures]
     defaults to — and must be — off. *)
  let pures = match pures with Some p -> p | None -> proof = None in
  if pures && proof <> None then
    invalid_arg "Preprocess.run: ~pures is incompatible with ~proof";
  let st =
    { units = 0; pures = 0; subsumed = 0; strengthened = 0;
      failed_literals = 0; eliminated = 0; elim_clauses_removed = 0;
      elim_resolvents = 0; rounds = 0 }
  in
  let nvars = Cnf.Formula.nvars f in
  let s =
    {
      nvars;
      clauses = Array.to_list (Cnf.Formula.clauses f);
      assign = Array.make (max 1 nvars) (-1);
      fix = [];
      elim = [];
      emit = (match proof with Some e -> e | None -> fun _ -> ());
      st;
    }
  in
  let frozen_arr = Array.make (max 1 nvars) false in
  List.iter (fun v -> if v >= 0 && v < nvars then frozen_arr.(v) <- true) frozen;
  let subsumption_on = subsumption in
  try
    let continue = ref true in
    while !continue do
      st.rounds <- st.rounds + 1;
      let c1 = simplify_clauses s in
      let c2 = if pures then pure_literals s else false in
      let c3 = if subsumption_on then subsume_pass s else false in
      let c4 = if strengthen then strengthen_pass s else false in
      let c5 =
        if elim then
          bve_pass s ~frozen:frozen_arr ~clause_cap:elim_clause_cap
            ~occ_cap:elim_occ_cap
        else false
      in
      let c6 = if probe_failed_literals then probe s else false in
      continue := (c1 || c2 || c3 || c4 || c5 || c6) && st.rounds < 20
    done;
    Simplified
      {
        formula = Cnf.Formula.of_clauses ~nvars:s.nvars s.clauses;
        fix = List.rev s.fix;
        elim = s.elim;
        stats = st;
      }
  with Found_unsat ->
    (* every raise site leaves the active clause set root-inconsistent
       under unit propagation, so the empty clause is RUP and the
       emitted stream is a complete refutation *)
    s.emit (Types.Add (Clause.of_list []));
    Unsat

let complete_model (simp : simplified) model =
  (* the fixes and the elimination stack may mention variables past the
     model array's end when callers hand in a short model *)
  let clause_need acc c =
    List.fold_left (fun acc l -> max acc (Lit.var l + 1)) acc
      (Clause.to_list c)
  in
  let need =
    List.fold_left (fun acc (v, _) -> max acc (v + 1)) (Array.length model)
      simp.fix
  in
  let need =
    List.fold_left
      (fun acc e ->
         let acc = max acc (e.evar + 1) in
         let acc = List.fold_left clause_need acc e.pos in
         List.fold_left clause_need acc e.neg)
      need simp.elim
  in
  let m =
    if need > Array.length model then
      Array.append model (Array.make (need - Array.length model) false)
    else Array.copy model
  in
  List.iter (fun (v, b) -> m.(v) <- b) simp.fix;
  (* Replay newest-first.  For each eliminated variable, every resolvent
     of its clause pair set is satisfied by [m] (it either survived to
     the final formula or was removed by a step replayed later), so one
     of the two values of [evar] satisfies all stored clauses: [true]
     unless no positive clause needs it. *)
  List.iter
    (fun e ->
       let others_sat c =
         List.exists
           (fun l ->
              let v = Lit.var l in
              v <> e.evar && (if Lit.is_pos l then m.(v) else not m.(v)))
           (Clause.to_list c)
       in
       m.(e.evar) <- List.exists (fun c -> not (others_sat c)) e.pos)
    simp.elim;
  m

let pp_stats ppf st =
  Format.fprintf ppf
    "units=%d pures=%d subsumed=%d strengthened=%d failed_literals=%d \
     vars_eliminated=%d clauses_removed=%d resolvents_added=%d rounds=%d"
    st.units st.pures st.subsumed st.strengthened st.failed_literals
    st.eliminated st.elim_clauses_removed st.elim_resolvents st.rounds
