module Lit = Cnf.Lit
module Clause = Cnf.Clause

type result = {
  necessary : Lit.t list;
  implicates : Clause.t list;
  unsat : bool;
  splits : int;
}

module LitSet = Set.Make (Int)

(* clauses longer than this are never split *)
let max_clause_size = 8

(* each pass re-examines the clauses with the units derived so far in
   force *)
let max_passes = 4

(* unresolved clauses one branch splits on before it stops looking *)
let inner_limit = 16

type env = {
  s : Cdcl.t;
  clauses : Clause.t array;
  (* every assumption: the support of whatever needed a nested split or
     a pruned branch.  The assumptions share decision level 1, so level
     0 holds exactly the formula's root facts. *)
  coarse : LitSet.t;
  (* support atoms for units we derived and asserted: citing a derived
     literal in a later explanation expands into what it rests on, so
     every recorded clause is an implicate of the original formula *)
  derived_support : (int, LitSet.t) Hashtbl.t;
  mutable splits : int;
  (* per literal: may assigning it imply another literal?  Valid while
     [implications_known]; see [mark_implying]. *)
  can_imply : bool array;
  mutable implications_known : bool;
}

(* Atoms explaining why [l] (currently true) holds: the literals at or
   below decision level [parent] that its implication chain rests on.
   Root facts are unconditional and dropped; derived units are
   expanded.  At parent level 0 every literal on the way is a root fact
   or above the parent, so no atom can exist. *)
let explain env ~parent l =
  if parent = 0 then LitSet.empty
  else begin
    let seen = Hashtbl.create 16 and atoms = ref LitSet.empty in
    let rec walk l =
      let v = Lit.var l in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        let level = Cdcl.var_level env.s v in
        if level > parent then Cdcl.iter_reason env.s v walk
        else if level > 0 then
          atoms :=
            match Hashtbl.find_opt env.derived_support v with
            | Some sup -> LitSet.union sup !atoms
            | None -> LitSet.add l !atoms
      end
    in
    walk l;
    !atoms
  end

let free_lits env c =
  List.filter (fun l -> Cdcl.value env.s l < 0) (Clause.to_list c)

let clause_unresolved env c =
  Clause.size c <= max_clause_size
  && (not (List.exists (fun l -> Cdcl.value env.s l = 1) (Clause.to_list c)))
  && List.length (free_lits env c) >= 2

(* Assigning [l] implies another literal only through a clause that
   holds [¬l] and is effectively binary: unsatisfied, with exactly two
   free literals.  Every other clause that holds [¬l] keeps two free
   literals or is satisfied.  This marks [can_imply.(l)] for the
   complement of each free literal of every effectively binary clause,
   under the assignment [value].  An assertion can make more clauses
   effectively binary, so the marks hold only until the next one. *)
let mark_implying ~value clauses can_imply =
  Array.fill can_imply 0 (Array.length can_imply) false;
  Array.iter
    (fun c ->
       let free = ref 0 and sat = ref false and a = ref 0 and b = ref 0 in
       for k = 0 to Clause.size c - 1 do
         let l = Clause.get c k in
         match value l with
         | 1 -> sat := true
         | 0 -> ()
         | _ ->
           incr free;
           b := !a;
           a := l
       done;
       if !free = 2 && not !sat then begin
         can_imply.(Lit.negate !a) <- true;
         can_imply.(Lit.negate !b) <- true
       end)
    clauses

(* A depth-1 split of [c] is bound to find nothing when no free literal
   of [c] can imply another literal: each of its two or more branches
   then implies only its own literal, so their common set is empty.  No
   branch [l] can conflict either: the clause it falsified would hold
   [¬l] as its last free literal, and propagation would have assigned
   [¬l] already. *)
let ruled_out ~value can_imply c =
  not (List.exists (fun l -> value l < 0 && can_imply.(l)) (Clause.to_list c))

(* With no assumptions and no clause shorter than two literals nothing
   is assigned at the root, so the depth-1 marks follow from the binary
   clauses alone.  When they rule out every clause that would be split,
   learning finds nothing, and no solver need be built to see it. *)
let barren clauses can_imply =
  let free _ = -1 in
  Array.for_all (fun c -> Clause.size c >= 2) clauses
  && begin
    mark_implying ~value:free clauses can_imply;
    Array.for_all
      (fun c ->
         Clause.size c > max_clause_size || ruled_out ~value:free can_imply c)
      clauses
  end

(* Case split on clause [c] at the given recursion depth.  Each free
   literal is probed on a fresh decision level, and a branch's implied
   set is its whole trail span.  Literals the probe alone implies get
   precise explanations; those that needed the nested splits of depth
   > 1 get the coarse support.

   Returns [None] when every branch conflicts, otherwise the literals
   implied in all surviving branches, each with its support atoms.  A
   branch pruned by a conflict is impossible only {e given the
   assumption context}, so when one was pruned every derivation must
   cite every assumption: the supports are widened to the coarse set. *)
let rec split env c ~depth =
  env.splits <- env.splits + 1;
  let pruned = ref false in
  let branch l =
    let parent = Cdcl.decision_level env.s in
    match Cdcl.probe_push env.s l with
    | Cdcl.Probe_conflict ->
      pruned := true;
      None
    | Cdcl.Probe_ok (i, j) ->
      let implied =
        if depth > 1 && not (split_inside env ~depth) then None
        else
          Some
            (List.init (Cdcl.trail_size env.s - i) (fun k ->
                 let x = Cdcl.trail_get env.s (i + k) in
                 (x, if i + k < j then explain env ~parent x else env.coarse)))
      in
      Cdcl.probe_pop env.s;
      if Option.is_none implied then pruned := true;
      implied
  in
  match List.filter_map branch (free_lits env c) with
  | [] -> None
  | first :: rest ->
    let common =
      List.fold_left
        (fun acc br ->
           List.filter_map
             (fun (x, sup) ->
                match List.assoc_opt x br with
                | Some sup' -> Some (x, LitSet.union sup sup')
                | None -> None)
             acc)
        first rest
    in
    Some
      (List.filter_map
         (fun (x, sup) ->
            if Cdcl.value env.s x >= 0 then None
            else if !pruned then Some (x, LitSet.union env.coarse sup)
            else Some (x, sup))
         common)

(* Splits the unresolved clauses inside a branch one level shallower and
   asserts their common literals on the branch's level; [false] once
   that conflicts. *)
and split_inside env ~depth =
  let examined = ref 0 in
  Array.for_all
    (fun c ->
       !examined >= inner_limit
       || (not (clause_unresolved env c))
       ||
       (incr examined;
        match split env c ~depth:(depth - 1) with
        | None -> false
        | Some commons ->
          List.for_all (fun (x, _) -> Cdcl.probe_assert env.s x) commons))
    env.clauses

(* Assumption-level reasons why the already-falsified literals of [c]
   are false; they join every explanation derived from [c]. *)
let falsified_support env c =
  let parent = Cdcl.decision_level env.s in
  List.fold_left
    (fun acc m ->
       if Cdcl.value env.s m = 0 then
         LitSet.union acc (explain env ~parent (Lit.negate m))
       else acc)
    LitSet.empty (Clause.to_list c)

(* Puts every assumption on decision level 1 (none: stay at level 0);
   [false] when they conflict with the formula or each other. *)
let assume s = function
  | [] -> true
  | a :: rest ->
    (match Cdcl.probe_push s a with
     | Cdcl.Probe_ok _ -> true
     | Cdcl.Probe_conflict -> false)
    && List.for_all (Cdcl.probe_assert s) rest

let learn ?(assumptions = []) ?(depth = 1) ?deadline f =
  let clauses = Cnf.Formula.clauses f in
  let can_imply = Array.make (2 * max 1 (Cnf.Formula.nvars f)) false in
  if depth = 1 && assumptions = [] && barren clauses can_imply then begin
    (* the one pass a solver would make, every clause ruled out *)
    let splits = ref 0 in
    (try
       Array.iter
         (fun c ->
            if Monotime.past deadline then raise Exit;
            if Clause.size c <= max_clause_size then incr splits)
         clauses
     with Exit -> ());
    { necessary = []; implicates = []; unsat = false; splits = !splits }
  end
  else
  let s = Cdcl.create f in
  if not (Cdcl.propagate_root s && assume s assumptions) then
    { necessary = []; implicates = []; unsat = true; splits = 0 }
  else begin
    let env =
      { s; clauses;
        coarse = LitSet.of_list assumptions;
        derived_support = Hashtbl.create 16; splits = 0;
        can_imply; implications_known = false }
    in
    let necessary = ref [] and implicates = ref [] in
    let unsat = ref false and out_of_time = ref false in
    let stopped () = !unsat || !out_of_time in
    let pass = ref 0 and progress = ref true in
    let examine c =
      if depth = 1 && env.implications_known
         && ruled_out ~value:(Cdcl.value s) env.can_imply c
      then
        (* counted as the split it stands for *)
        env.splits <- env.splits + 1
      else
        let fsup = falsified_support env c in
        match split env c ~depth with
        | None -> unsat := true
        | Some commons ->
          List.iter
            (fun (x, sup) ->
               if (not !unsat) && Cdcl.value s x < 0 then begin
                 let atoms = LitSet.union sup fsup in
                 let clause =
                   Clause.of_list
                     (x :: List.map Lit.negate (LitSet.elements atoms))
                 in
                 necessary := x :: !necessary;
                 implicates := clause :: !implicates;
                 Hashtbl.replace env.derived_support (Lit.var x) atoms;
                 env.implications_known <- false;
                 if Cdcl.probe_assert s x then progress := true
                 else unsat := true
               end)
            commons
    in
    while (not (stopped ())) && !progress && !pass < max_passes do
      incr pass;
      progress := false;
      if depth = 1 then begin
        mark_implying ~value:(Cdcl.value s) env.clauses env.can_imply;
        env.implications_known <- true
      end;
      Array.iter
        (fun c ->
           if not (stopped ()) then begin
             out_of_time := Monotime.past deadline;
             if (not !out_of_time) && clause_unresolved env c then examine c
           end)
        env.clauses
    done;
    {
      necessary = List.rev !necessary;
      implicates = List.rev !implicates;
      unsat = !unsat;
      splits = env.splits;
    }
  end

let strengthen ?(depth = 1) ?deadline f =
  let r = learn ~depth ?deadline f in
  let g = Cnf.Formula.copy f in
  if r.unsat then Cnf.Formula.add_clause_l g []
  else List.iter (fun c -> Cnf.Formula.add_clause g c) r.implicates;
  (g, r)
