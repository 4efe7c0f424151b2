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
}

(* Atoms explaining why [l] (currently true) holds: the literals at or
   below decision level [parent] that its implication chain rests on.
   Root facts are unconditional and dropped; derived units are
   expanded. *)
let explain env ~parent l =
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

let free_lits env c =
  List.filter (fun l -> Cdcl.value env.s l < 0) (Clause.to_list c)

let clause_unresolved env c =
  Clause.size c <= max_clause_size
  && (not (List.exists (fun l -> Cdcl.value env.s l = 1) (Clause.to_list c)))
  && List.length (free_lits env c) >= 2

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

let learn ?(assumptions = []) ?(depth = 1) f =
  let s = Cdcl.create f in
  if not (Cdcl.propagate_root s && assume s assumptions) then
    { necessary = []; implicates = []; unsat = true; splits = 0 }
  else begin
    let env =
      { s; clauses = Cnf.Formula.clauses f;
        coarse = LitSet.of_list assumptions;
        derived_support = Hashtbl.create 16; splits = 0 }
    in
    let necessary = ref [] and implicates = ref [] in
    let unsat = ref false in
    let pass = ref 0 and progress = ref true in
    while (not !unsat) && !progress && !pass < max_passes do
      incr pass;
      progress := false;
      Array.iter
        (fun c ->
           if (not !unsat) && clause_unresolved env c then begin
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
                      if Cdcl.probe_assert s x then progress := true
                      else unsat := true
                    end)
                 commons
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

let strengthen ?(depth = 1) f =
  let r = learn ~depth f in
  let g = Cnf.Formula.copy f in
  if r.unsat then Cnf.Formula.add_clause_l g []
  else List.iter (fun c -> Cnf.Formula.add_clause g c) r.implicates;
  (g, r)
