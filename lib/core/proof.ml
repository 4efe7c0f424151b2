(* DRAT proof checking, backward trimming to LRAT, and unsat cores.
   The format and algorithms are specified in docs/PROOFS.md; keep the
   two in sync. *)

module Lit = Cnf.Lit
module Clause = Cnf.Clause

type step = Types.proof_step = Add of Clause.t * int array | Delete of Clause.t

type verdict =
  | Valid_refutation
  | Valid_derivation
  | Invalid_step of int

type lrat_line = { id : int; lits : Clause.t; hints : int array }

type trim_result =
  | Trimmed of {
      lines : lrat_line list;
      core : int list;
      kept_adds : int;
      total_adds : int;
    }
  | Not_refutation
  | Trim_invalid of int

(* ------------------------------------------------------------------ *)
(* Checker clause database (the drat-trim layout).  Only active
   clauses are watched, through (blocking literal, id) entries; clauses
   marked as needed by the refutation have watch lists of their own,
   propagated to fixpoint before any other list.  The root closure —
   the active units and everything they propagate — stays on the trail
   between RUP checks and is recomputed only when a deactivation may
   have shrunk it.                                                     *)
(* ------------------------------------------------------------------ *)

type cls = {
  id : int; (* 1-based; originals are 1..n in formula order *)
  lits : Lit.t array; (* watches live in slots 0 and 1 when size >= 2 *)
  clause : Clause.t; (* sorted content: deletion matching, LRAT lines *)
  mutable active : bool;
  mutable marked : bool; (* needed for the refutation (backward trim) *)
}

module Ctbl = Hashtbl.Make (struct
  type t = Clause.t

  let equal = Clause.equal

  let hash c =
    let h = ref (Clause.size c) in
    for i = 0 to Clause.size c - 1 do
      h := (!h * 31) + Clause.get c i
    done;
    !h land max_int
end)

type db = {
  by_id : cls Vec.t; (* indexed by id; slot 0 is a placeholder *)
  stacks : cls list ref Ctbl.t;
      (* content -> active copies, most recent first *)
  watches : Watcher.t array; (* literal-indexed; active unmarked clauses *)
  core : Watcher.t array; (* literal-indexed; active marked clauses *)
  mutable units : cls list; (* every size-1 clause ever added *)
  mutable empties : cls list; (* every size-0 clause ever added *)
  value : int array; (* var -> 0 unassigned / 1 true / -1 false *)
  reason : int array; (* var -> asserting clause id; 0 = assumption *)
  pos : int array; (* var -> trail index *)
  seen : int array;
      (* analysis scratch: 1 = still to explain, 2 = in the checked clause *)
  hval : int array; (* hint replay's own assignment, as [value] *)
  hset : Ivec.t; (* the variables [hval] assigns *)
  hints : Ivec.t; (* hints being collected by [analyze] *)
  trail : Ivec.t; (* literals *)
  mutable qhead : int; (* next trail literal for [watches] *)
  mutable qcore : int; (* next trail literal for [core] *)
  mutable root : int; (* trail length of the root closure *)
  mutable root_confl : int; (* clause id conflicting at root, or 0 *)
  mutable stale : bool; (* the root closure must be recomputed *)
  mutable watching : bool;
      (* the watch lists follow activation; when false they are empty
         and (de)activation only flips flags until [rewatch] *)
  mutable next_id : int;
}

let lit_value db l =
  let v = db.value.(Lit.var l) in
  if v = 0 then 0 else if Lit.is_pos l then v else -v

let max_var_steps steps =
  List.fold_left
    (fun acc s ->
      let c = match s with Add (c, _) | Delete c -> c in
      let m = ref acc in
      for i = 0 to Clause.size c - 1 do
        m := max !m (Lit.var (Clause.get c i))
      done;
      !m)
    (-1) steps

let empty_clause = Clause.of_list []

let dummy_cls =
  { id = 0; lits = [||]; clause = empty_clause; active = false; marked = false }

let enqueue db l reason_id =
  let v = Lit.var l in
  db.value.(v) <- (if Lit.is_pos l then 1 else -1);
  db.reason.(v) <- reason_id;
  db.pos.(v) <- Ivec.size db.trail;
  Ivec.push db.trail l

(* Visits the watchers of [fl], just falsified, in one list family:
   keeps, moves or fires each entry, and returns a conflicting clause
   id or 0.  A moved watch goes to a non-false literal's list, never
   this one, so the raw arrays stay valid throughout. *)
let visit db lists fl =
  let w = lists.(fl) in
  let n = Watcher.size w in
  let bls = Watcher.raw_blockers w and crs = Watcher.raw_crefs w in
  let i = ref 0 and j = ref 0 and confl = ref 0 in
  while !i < n do
    let b = bls.(!i) and id = crs.(!i) in
    incr i;
    (* the entry's new blocker, or -1 when its watch moved *)
    let blocker =
      if lit_value db b = 1 then b
      else begin
        let lits = (Vec.get db.by_id id).lits in
        if lits.(0) = fl then begin
          lits.(0) <- lits.(1);
          lits.(1) <- fl
        end;
        let w0 = lits.(0) in
        let v0 = lit_value db w0 in
        if v0 = 1 then w0
        else begin
          let len = Array.length lits in
          let k = ref 2 in
          while !k < len && lit_value db lits.(!k) = -1 do
            incr k
          done;
          if !k < len then begin
            lits.(1) <- lits.(!k);
            lits.(!k) <- fl;
            Watcher.push lists.(lits.(1)) w0 id;
            -1
          end
          else begin
            if v0 = 0 then enqueue db w0 id else confl := id;
            w0
          end
        end
      end
    in
    if blocker >= 0 then begin
      bls.(!j) <- blocker;
      crs.(!j) <- id;
      incr j
    end;
    if !confl <> 0 then
      while !i < n do
        bls.(!j) <- bls.(!i);
        crs.(!j) <- crs.(!i);
        incr i;
        incr j
      done
  done;
  Watcher.shrink w !j;
  !confl

(* Unit propagation, core first: a trail literal is let through the
   unmarked clauses' lists only when the core lists are at fixpoint. *)
let propagate db =
  let trail = db.trail in
  let confl = ref 0 in
  while
    !confl = 0 && (db.qcore < Ivec.size trail || db.qhead < Ivec.size trail)
  do
    if db.qcore < Ivec.size trail then begin
      let l = Ivec.get trail db.qcore in
      db.qcore <- db.qcore + 1;
      confl := visit db db.core (Lit.negate l)
    end
    else begin
      let l = Ivec.get trail db.qhead in
      db.qhead <- db.qhead + 1;
      confl := visit db db.watches (Lit.negate l)
    end
  done;
  !confl

let assert_unit db c =
  if db.root_confl = 0 then
    let u = c.lits.(0) in
    match lit_value db u with
    | 0 -> enqueue db u c.id
    | -1 -> db.root_confl <- c.id
    | _ -> ()

(* Propagates what was just enqueued on top of the closure into it. *)
let extend_root db =
  if db.root_confl = 0 then db.root_confl <- propagate db;
  db.root <- Ivec.size db.trail

let close_root db =
  for i = 0 to Ivec.size db.trail - 1 do
    db.value.(Lit.var (Ivec.get db.trail i)) <- 0
  done;
  Ivec.clear db.trail;
  db.qhead <- 0;
  db.qcore <- 0;
  db.root_confl <-
    (match List.find_opt (fun c -> c.active) db.empties with
    | Some c -> c.id
    | None -> 0);
  List.iter (fun c -> if c.active then assert_unit db c) db.units;
  extend_root db;
  db.stale <- false

let watch lists c =
  Watcher.push lists.(c.lits.(0)) c.lits.(1) c.id;
  Watcher.push lists.(c.lits.(1)) c.lits.(0) c.id

(* Swap-removes [c]'s entries, which must be present, from the lists of
   its two watches. *)
let unwatch lists c =
  for s = 0 to 1 do
    let w = lists.(c.lits.(s)) in
    let last = Watcher.size w - 1 in
    let i = ref last in
    while Watcher.cref w !i <> c.id do
      decr i
    done;
    Watcher.unsafe_set w !i (Watcher.blocker w last) (Watcher.cref w last);
    Watcher.shrink w last
  done

let family db c = if c.marked then db.core else db.watches

(* Moves up to two non-false literals into the watch slots; returns
   how many there were. *)
let non_false_first db lits =
  let free = ref 0 in
  Array.iteri
    (fun k l ->
      if !free < 2 && lit_value db l <> -1 then begin
        lits.(k) <- lits.(!free);
        lits.(!free) <- l;
        incr free
      end)
    lits;
  !free

(* Watches a clause that just became active.  Over a valid,
   conflict-free closure, a clause that is unit there extends the
   closure, and one that is falsified becomes its conflict. *)
let attach db c =
  let lits = c.lits in
  let live = (not db.stale) && db.root_confl = 0 in
  match Array.length lits with
  | 0 -> if live then db.root_confl <- c.id
  | 1 ->
    if live then begin
      assert_unit db c;
      extend_root db
    end
  | _ ->
    let free = if live then non_false_first db lits else 2 in
    watch (family db c) c;
    if free = 0 then db.root_confl <- c.id
    else if free = 1 && lit_value db lits.(0) = 0 then begin
      enqueue db lits.(0) c.id;
      extend_root db
    end

(* Deactivates a clause and unwatches it.  The closure goes stale when
   the clause is its conflict or the reason of one of its literals (a
   reason's implied literal sits in slot 0). *)
let retire db c =
  let lits = c.lits in
  c.active <- false;
  if db.watching then begin
    if
      (not db.stale)
      && (c.id = db.root_confl
         || Array.length lits > 0
            && db.value.(Lit.var lits.(0)) <> 0
            && db.reason.(Lit.var lits.(0)) = c.id)
    then db.stale <- true;
    if Array.length lits >= 2 then unwatch (family db c) c
  end

let reactivate db c =
  c.active <- true;
  if db.watching then attach db c

let stack db clause =
  match Ctbl.find_opt db.stacks clause with
  | Some r -> r
  | None ->
    let r = ref [] in
    Ctbl.add db.stacks clause r;
    r

let activate db c =
  reactivate db c;
  let r = stack db c.clause in
  r := c :: !r

let add_active db clause =
  let c =
    {
      id = db.next_id;
      lits = Clause.to_array clause;
      clause;
      active = false;
      marked = false;
    }
  in
  db.next_id <- db.next_id + 1;
  Vec.push db.by_id c;
  (match Clause.size clause with
  | 0 -> db.empties <- c :: db.empties
  | 1 -> db.units <- c :: db.units
  | _ -> ());
  activate db c;
  c

(* Deletion by content: deactivate the most recently added active copy.
   Unmatched deletions (e.g. of clauses imported from a peer solver and
   never added to this proof) are ignored. *)
let try_deactivate db clause =
  let r = stack db clause in
  match !r with
  | [] -> None
  | c :: rest ->
    r := rest;
    retire db c;
    Some c

(* Empties every watch list: from here on (de)activation only flips
   flags, until a RUP check needs the watches again. *)
let unwatch_all db =
  Array.iter Watcher.clear db.watches;
  Array.iter Watcher.clear db.core;
  db.watching <- false

(* Watches every active clause again, in id order; the root closure is
   recomputed from scratch. *)
let rewatch db =
  for id = 1 to Vec.size db.by_id - 1 do
    let c = Vec.get db.by_id id in
    if c.active && Array.length c.lits >= 2 then watch (family db c) c
  done;
  db.watching <- true;
  db.stale <- true

let build ~watching formula steps =
  let nvars =
    max (Cnf.Formula.nvars formula) (max_var_steps steps + 1)
  in
  let lists () = Array.init (2 * nvars) (fun _ -> Watcher.create ()) in
  let ids = Cnf.Formula.nclauses formula + List.length steps + 1 in
  let db =
    {
      by_id = Vec.create ~capacity:ids ~dummy:dummy_cls ();
      stacks = Ctbl.create ids;
      watches = lists ();
      core = lists ();
      units = [];
      empties = [];
      value = Array.make (max nvars 1) 0;
      reason = Array.make (max nvars 1) 0;
      pos = Array.make (max nvars 1) 0;
      seen = Array.make (max nvars 1) 0;
      hval = Array.make (max nvars 1) 0;
      hset = Ivec.create ();
      hints = Ivec.create ();
      trail = Ivec.create ();
      qhead = 0;
      qcore = 0;
      root = 0;
      root_confl = 0;
      stale = true;
      watching;
      next_id = 1;
    }
  in
  Vec.push db.by_id dummy_cls;
  Array.iter (fun c -> ignore (add_active db c)) (Cnf.Formula.clauses formula);
  db

let n_originals db = Vec.size db.by_id - 1 (* only valid right after build *)

(* RUP check of [c] over the active set: returns a conflicting clause
   id, or 0 if [c] is not RUP.  Above the root closure, the negation of
   [c] is asserted and propagated; the trail is left in place so hints
   can be extracted, and the caller must [unwind].  A literal of [c]
   already true at root needs no propagation: the reason of the
   earliest such literal conflicts with the negation of [c] (a later
   one's reason may contain an earlier one, which that negation
   satisfies). *)
let check_rup db c =
  if not db.watching then rewatch db;
  if db.stale then close_root db;
  let n = Clause.size c in
  let first = ref (-1) in
  for i = 0 to n - 1 do
    let l = Clause.get c i in
    if lit_value db l = 1 then begin
      let p = db.pos.(Lit.var l) in
      if !first < 0 || p < !first then first := p
    end
  done;
  if !first >= 0 then db.reason.(Lit.var (Ivec.get db.trail !first))
  else if db.root_confl <> 0 then db.root_confl
  else begin
    for i = 0 to n - 1 do
      let l = Clause.get c i in
      if lit_value db l = 0 then enqueue db (Lit.negate l) 0
    done;
    propagate db
  end

let unwind db =
  for i = db.root to Ivec.size db.trail - 1 do
    db.value.(Lit.var (Ivec.get db.trail i)) <- 0
  done;
  Ivec.shrink db.trail db.root;
  db.qhead <- db.root;
  db.qcore <- db.root

(* Marks a clause as needed and moves its watches to the core lists. *)
let mark db c =
  if not c.marked then begin
    if db.watching && c.active && Array.length c.lits >= 2 then begin
      unwatch db.watches c;
      watch db.core c
    end;
    c.marked <- true
  end

(* Marks clause [id] as needed and flags its variables not yet seen as
   still to explain; returns how many it flagged. *)
let explain db id =
  let cl = Vec.get db.by_id id in
  mark db cl;
  let seen = db.seen and lits = cl.lits in
  let n = ref 0 in
  for k = 0 to Array.length lits - 1 do
    let v = Lit.var lits.(k) in
    if seen.(v) = 0 then begin
      seen.(v) <- 1;
      incr n
    end
  done;
  !n

(* From the conflict of [check_rup db c], collect the antecedent hint
   ids and mark every hint clause as needed: mark the conflict clause's
   variables, walk the trail backward including each marked variable's
   reason transitively, and stop once every marked variable has been
   consumed.  Reasons come out in trail order, followed by the
   conflicting clause id — exactly the order in which an LRAT checker
   can replay them as unit propagations.  The variables of [c] are
   never explained: the replayer assigns them from the negation of [c],
   under which their root reasons would read as satisfied. *)
let analyze db c confl =
  let seen = db.seen in
  for i = 0 to Clause.size c - 1 do
    seen.(Lit.var (Clause.get c i)) <- 2
  done;
  let hints = db.hints in
  Ivec.clear hints;
  Ivec.push hints confl;
  let pending = ref (explain db confl) in
  let i = ref (Ivec.size db.trail - 1) in
  while !pending > 0 do
    let v = Lit.var (Ivec.get db.trail !i) in
    if seen.(v) = 1 then begin
      let r = db.reason.(v) in
      if r > 0 then begin
        pending := !pending + explain db r;
        Ivec.push hints r
      end;
      seen.(v) <- 0;
      decr pending
    end;
    decr i
  done;
  for i = 0 to Clause.size c - 1 do
    seen.(Lit.var (Clause.get c i)) <- 0
  done;
  (* [hints] holds the conflict, then the reasons latest first *)
  let n = Ivec.size hints in
  let out = Array.make n 0 in
  for k = 0 to n - 1 do
    out.(k) <- Ivec.get hints (n - 1 - k)
  done;
  out

let hint_assign db l =
  db.hval.(Lit.var l) <- (if Lit.is_pos l then 1 else -1);
  Ivec.push db.hset (Lit.var l)

(* Checks the producer's hints for [c] without search: under the
   negation of [c], each hint must name an earlier active clause that
   is unit (its literal is asserted) and the last must conflict — the
   replay [check_lrat] does, so a success is a RUP derivation of [c]
   over the active set.  On success every hint clause is marked as
   needed. *)
let replay db c hints =
  let hv = db.hval in
  for i = 0 to Clause.size c.clause - 1 do
    let l = Clause.get c.clause i in
    if hv.(Lit.var l) = 0 then hint_assign db (Lit.negate l)
  done;
  let n = Array.length hints in
  (* [k] is the next hint; the loop stops at [n] on a failed hint *)
  let k = ref 0 and ok = ref false in
  while !k < n do
    let h = hints.(!k) in
    let hc = if h < 1 || h >= c.id then dummy_cls else Vec.get db.by_id h in
    if not hc.active then k := n
    else begin
      let lits = hc.lits in
      (* [free] unassigned literals so far, -1 once one is true; the
         scan stops as soon as the hint cannot be unit *)
      let free = ref 0 and pivot = ref 0 and j = ref 0 in
      while !free >= 0 && !free < 2 && !j < Array.length lits do
        let l = lits.(!j) in
        let x = hv.(Lit.var l) in
        let x = if Lit.is_pos l then x else -x in
        if x = 1 then free := -1
        else if x = 0 then begin
          incr free;
          pivot := l
        end;
        incr j
      done;
      if !free = 1 then begin
        hint_assign db !pivot;
        incr k
      end
      else begin
        ok := !free = 0 && !k = n - 1;
        k := n
      end
    end
  done;
  let hset = db.hset in
  for i = 0 to Ivec.size hset - 1 do
    hv.(Ivec.get hset i) <- 0
  done;
  Ivec.clear hset;
  if !ok then
    for i = 0 to n - 1 do
      mark db (Vec.get db.by_id hints.(i))
    done;
  !ok

(* ------------------------------------------------------------------ *)
(* Forward checking                                                    *)
(* ------------------------------------------------------------------ *)

let check formula steps =
  let db = build ~watching:true formula steps in
  let rec go i = function
    | [] ->
      let confl = check_rup db empty_clause in
      unwind db;
      if confl <> 0 then Valid_refutation else Valid_derivation
    | Add (c, _) :: rest when Clause.is_tautology c ->
      (* tautologies are trivially valid and propagation-inert *)
      go (i + 1) rest
    | Add (c, _) :: rest ->
      let confl = check_rup db c in
      unwind db;
      if confl = 0 then Invalid_step i
      else if Clause.is_empty c then Valid_refutation
      else begin
        ignore (add_active db c);
        go (i + 1) rest
      end
    | Delete c :: rest ->
      if not (Clause.is_tautology c) then ignore (try_deactivate db c);
      go (i + 1) rest
  in
  go 0 steps

(* ------------------------------------------------------------------ *)
(* Backward trimming                                                   *)
(* ------------------------------------------------------------------ *)

type replayed = R_add of cls * int array | R_del of cls option

let trim_hinted formula steps =
  (* A stream with hints is ingested and walked back without watches
     while its steps verify from their hints: the first RUP check
     watches the active set again.  A stream without hints keeps its
     watches throughout, as before hints existed. *)
  let hinted =
    List.exists
      (function Add (_, h) -> Array.length h > 0 | Delete _ -> false)
      steps
  in
  let db = build ~watching:(not hinted) formula steps in
  let n_orig = n_originals db in
  (* Forward ingestion, no checking: replay adds/deletes so the final
     active set is in place, remembering each effect for the backward
     undo.  An explicit empty-clause addition truncates the stream. *)
  let total_adds = ref 0 in
  let rec ingest i acc = function
    | [] -> acc
    | Add (c, _) :: _ when Clause.is_empty c -> acc
    | Add (c, _) :: rest when Clause.is_tautology c -> ingest (i + 1) acc rest
    | Add (c, hints) :: rest ->
      let cl = add_active db c in
      incr total_adds;
      ingest (i + 1) ((i, R_add (cl, hints)) :: acc) rest
    | Delete c :: rest when Clause.is_tautology c -> ingest (i + 1) acc rest
    | Delete c :: rest ->
      let t = try_deactivate db c in
      ingest (i + 1) ((i, R_del t) :: acc) rest
  in
  (* newest first: the order of the backward pass *)
  let recs = ingest 0 [] steps in
  (* Terminal conflict: the empty clause must be RUP over the final
     active set.  This also covers proofs with no explicit empty clause
     (the CDCL engine stops at the root conflict without recording
     one). *)
  let confl = check_rup db empty_clause in
  if confl = 0 then begin
    unwind db;
    (Not_refutation, 0)
  end
  else begin
    let terminal_hints = analyze db empty_clause confl in
    unwind db;
    if hinted then unwatch_all db;
    let terminal =
      { id = db.next_id; lits = empty_clause; hints = terminal_hints }
    in
    (* Backward pass: undo each step; verify (and collect hints for)
       only the additions marked as needed — by replaying the step's
       own hints when they hold, by RUP otherwise.  Unmarked additions
       are trimmed from the certificate without validation. *)
    let exception Invalid of int in
    let lines = ref [ terminal ] in
    let hinted = ref 0 in
    match
      List.iter
        (fun (idx, r) ->
          match r with
          | R_del None -> ()
          | R_del (Some c) -> reactivate db c
          | R_add (c, given) ->
            retire db c;
            if c.marked then begin
              let hints =
                if Array.length given > 0 && replay db c given then begin
                  incr hinted;
                  given
                end
                else begin
                  let confl = check_rup db c.clause in
                  if confl = 0 then begin
                    unwind db;
                    raise (Invalid idx)
                  end;
                  let hints = analyze db c.clause confl in
                  unwind db;
                  hints
                end
              in
              lines := { id = c.id; lits = c.clause; hints } :: !lines
            end)
        recs
    with
    | () ->
      let core = ref [] in
      for id = n_orig downto 1 do
        if (Vec.get db.by_id id).marked then core := id :: !core
      done;
      ( Trimmed
          {
            lines = !lines;
            core = !core;
            kept_adds = List.length !lines - 1;
            total_adds = !total_adds;
          },
        !hinted )
    | exception Invalid idx -> (Trim_invalid idx, 0)
  end

let trim formula steps = fst (trim_hinted formula steps)

(* ------------------------------------------------------------------ *)
(* Hints over a preprocessed formula                                   *)
(* ------------------------------------------------------------------ *)

(* Replays [pre] over a content table, as [ingest] would, to find the
   id of each clause of [solved]: its most recent active copy, the one
   a deletion would take. *)
let renumber formula pre solved steps =
  let live = Ctbl.create (2 * Cnf.Formula.nclauses formula) in
  let push c id =
    Ctbl.replace live c (id :: Option.value (Ctbl.find_opt live c) ~default:[])
  in
  Array.iteri (fun i c -> push c (i + 1)) (Cnf.Formula.clauses formula);
  let next = ref (Cnf.Formula.nclauses formula + 1) in
  List.iter
    (function
      | Add (c, _) ->
        if not (Clause.is_empty c || Clause.is_tautology c) then begin
          push c !next;
          incr next
        end
      | Delete c -> (
        match Ctbl.find_opt live c with
        | Some (_ :: rest) -> Ctbl.replace live c rest
        | Some [] | None -> ()))
    pre;
  let ids =
    Array.map
      (fun c -> match Ctbl.find_opt live c with Some (id :: _) -> id | _ -> 0)
      (Cnf.Formula.clauses solved)
  in
  let m = Array.length ids and base = !next in
  let lost h = Array.exists (fun x -> x <= m && ids.(x - 1) = 0) h in
  let renumbered = function
    | Add (c, h) when lost h -> Add (c, [||])
    | Add (_, h) as step ->
      Array.iteri
        (fun k x -> h.(k) <- (if x <= m then ids.(x - 1) else base + x - m - 1))
        h;
      step
    | Delete _ as step -> step
  in
  (* the list is rebuilt only when some hints are dropped *)
  if Array.exists (( = ) 0) ids then List.map renumbered steps
  else begin
    List.iter (fun step -> ignore (renumbered step)) steps;
    steps
  end

let core_clauses formula core =
  let cls = Cnf.Formula.clauses formula in
  List.map (fun id -> cls.(id - 1)) core

let core_formula formula core =
  Cnf.Formula.of_clauses
    ~nvars:(Cnf.Formula.nvars formula)
    (core_clauses formula core)

(* ------------------------------------------------------------------ *)
(* Independent LRAT checking (linear, hint-driven; no search)          *)
(* ------------------------------------------------------------------ *)

(* The clause table is indexed by id.  Ids only increase but may skip
   (a trimmed certificate keeps its stream numbering), so the ids up to
   the size of the input, counted in lines and hints, index an array
   and any line above that goes to an overflow table: memory stays
   bounded by the input, whatever its ids.  Each line's [Clause.t] is
   stored as it is, not copied; [absent] marks an empty slot. *)
let absent = Clause.of_list [ Lit.pos 0 ]

let check_lrat formula lines =
  let exception Reject of string in
  let reject line fmt =
    Format.kasprintf
      (fun m -> raise_notrace (Reject (Printf.sprintf "line %d: %s" line m)))
      fmt
  in
  let cls = Cnf.Formula.clauses formula in
  let m = Array.length cls in
  let size = ref m and max_id = ref m in
  List.iter
    (fun (ln : lrat_line) ->
      size := !size + 1 + Array.length ln.hints;
      max_id := max !max_id ln.id)
    lines;
  let slots = 1 + min !max_id !size in
  let tbl = Array.make slots absent in
  Array.blit cls 0 tbl 1 m;
  let over = Hashtbl.create 16 in
  (* var -> 0 unassigned / 1 true / -1 false; grown to cover each line
     before it is checked or stored *)
  let value = ref (Array.make (max 1 (Cnf.Formula.nvars formula)) 0) in
  let assigned = Ivec.create () in
  let last_id = ref m in
  let check_line lineno ({ id; lits; hints } : lrat_line) =
    if id <= !last_id then
      reject lineno "id %d not above previous id %d" id !last_id;
    let n = Clause.size lits in
    (* sorted: the last literal has the largest variable *)
    let top = if n = 0 then 0 else Lit.var (Clause.get lits (n - 1)) in
    let len = Array.length !value in
    if top >= len then begin
      let v = Array.make (max (top + 1) (2 * len)) 0 in
      Array.blit !value 0 v 0 len;
      value := v
    end;
    let value = !value in
    (* a tautology is trivially valid; our writer never emits one *)
    if not (Clause.is_tautology lits) then begin
      for i = 0 to n - 1 do
        let l = Clause.get lits i in
        value.(Lit.var l) <- (if Lit.is_pos l then -1 else 1);
        Ivec.push assigned (Lit.var l)
      done;
      let last = Array.length hints - 1 in
      let k = ref 0 and conflict = ref false in
      while not !conflict do
        if !k > last then reject lineno "hints ended without a conflict";
        let h = hints.(!k) in
        if h <= 0 then reject lineno "RAT hint %d unsupported" h;
        let hl =
          if h < slots then tbl.(h)
          else Option.value (Hashtbl.find_opt over h) ~default:absent
        in
        if hl == absent then reject lineno "hint %d names an unknown clause" h;
        let unassigned = ref 0 and pivot = ref 0 and satisfied = ref false in
        for j = 0 to Clause.size hl - 1 do
          let l = Clause.get hl j in
          let x = value.(Lit.var l) in
          let x = if Lit.is_pos l then x else -x in
          if x = 1 then satisfied := true
          else if x = 0 then begin
            incr unassigned;
            pivot := l
          end
        done;
        if !satisfied then reject lineno "hint %d is satisfied, not unit" h
        else if !unassigned = 0 then begin
          if !k < last then
            reject lineno "hint %d conflicts before the final hint" h;
          conflict := true
        end
        else if !unassigned = 1 then begin
          let l = !pivot in
          value.(Lit.var l) <- (if Lit.is_pos l then 1 else -1);
          Ivec.push assigned (Lit.var l);
          incr k
        end
        else reject lineno "hint %d is not unit (%d unassigned)" h !unassigned
      done;
      for i = 0 to Ivec.size assigned - 1 do
        value.(Ivec.get assigned i) <- 0
      done;
      Ivec.clear assigned
    end;
    if id < slots then tbl.(id) <- lits else Hashtbl.replace over id lits;
    last_id := id
  in
  let rec go lineno = function
    | [] -> Error "proof ends without an empty-clause line"
    | [ (final : lrat_line) ] ->
      if not (Clause.is_empty final.lits) then
        reject lineno "final line is not the empty clause";
      check_line lineno final;
      Ok ()
    | line :: rest ->
      check_line lineno line;
      go (lineno + 1) rest
  in
  try go 1 lines with Reject msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Text formats                                                        *)
(* ------------------------------------------------------------------ *)

let output_step buf step =
  let c, del =
    match step with Add (c, _) -> (c, false) | Delete c -> (c, true)
  in
  if del then Buffer.add_string buf "d ";
  List.iter
    (fun l ->
      Buffer.add_string buf (string_of_int (Lit.to_dimacs l));
      Buffer.add_char buf ' ')
    (Clause.to_list c);
  Buffer.add_string buf "0\n"

let drat_to_string steps =
  let buf = Buffer.create 4096 in
  List.iter (output_step buf) steps;
  Buffer.contents buf

let write_drat oc steps = output_string oc (drat_to_string steps)

let write_drat_file path steps =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_drat oc steps)

let parse_drat text =
  let steps = ref [] in
  let lineno = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         incr lineno;
         let line = String.trim line in
         if line <> "" && line.[0] <> 'c' then begin
           let toks =
             String.split_on_char ' ' line
             |> List.filter (fun t -> t <> "")
           in
           let del, toks =
             match toks with "d" :: rest -> (true, rest) | _ -> (false, toks)
           in
           let ints =
             List.map
               (fun t ->
                 match int_of_string_opt t with
                 | Some v -> v
                 | None ->
                   failwith
                     (Printf.sprintf "DRAT parse error at line %d: %S" !lineno t))
               toks
           in
           match List.rev ints with
           | 0 :: rev_lits ->
             let c =
               Clause.of_list (List.rev_map Lit.of_dimacs rev_lits)
             in
             steps := (if del then Delete c else Add (c, [||])) :: !steps
           | _ ->
             failwith
               (Printf.sprintf "DRAT parse error at line %d: missing 0" !lineno)
         end);
  List.rev !steps

let parse_drat_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse_drat (In_channel.input_all ic))

let lrat_to_string lines =
  let buf = Buffer.create 4096 in
  List.iter
    (fun { id; lits; hints } ->
      Buffer.add_string buf (string_of_int id);
      Buffer.add_char buf ' ';
      List.iter
        (fun l ->
          Buffer.add_string buf (string_of_int (Lit.to_dimacs l));
          Buffer.add_char buf ' ')
        (Clause.to_list lits);
      Buffer.add_string buf "0 ";
      Array.iter
        (fun h ->
          Buffer.add_string buf (string_of_int h);
          Buffer.add_char buf ' ')
        hints;
      Buffer.add_string buf "0\n")
    lines;
  Buffer.contents buf

let write_lrat oc lines = output_string oc (lrat_to_string lines)

let write_lrat_file path lines =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_lrat oc lines)

let parse_lrat text =
  let lines = ref [] in
  let lineno = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         incr lineno;
         let line = String.trim line in
         if line <> "" && line.[0] <> 'c' then begin
           let toks =
             String.split_on_char ' ' line
             |> List.filter (fun t -> t <> "")
           in
           match toks with
           | _ :: "d" :: _ -> () (* deletion lines are ignored *)
           | id :: rest -> (
             let fail () =
               failwith
                 (Printf.sprintf "LRAT parse error at line %d" !lineno)
             in
             let id =
               match int_of_string_opt id with Some v -> v | None -> fail ()
             in
             let ints =
               List.map
                 (fun t ->
                   match int_of_string_opt t with
                   | Some v -> v
                   | None -> fail ())
                 rest
             in
             (* <lits> 0 <hints> 0 *)
             let rec split_lits acc = function
               | 0 :: rest -> (List.rev acc, rest)
               | l :: rest -> split_lits (l :: acc) rest
               | [] -> fail ()
             in
             let lits, rest = split_lits [] ints in
             let rec split_hints acc = function
               | [ 0 ] -> Array.of_list (List.rev acc)
               | h :: rest -> split_hints (h :: acc) rest
               | [] -> fail ()
             in
             let hints = split_hints [] rest in
             lines :=
               {
                 id;
                 lits = Clause.of_list (List.map Lit.of_dimacs lits);
                 hints;
               }
               :: !lines)
           | [] -> ()
         end);
  List.rev !lines

let parse_lrat_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse_lrat (In_channel.input_all ic))

(* ------------------------------------------------------------------ *)
(* Convenience                                                         *)
(* ------------------------------------------------------------------ *)

let solve_certified ?(config = Types.default) formula =
  let config = { config with Types.proof_logging = true } in
  let solver = Cdcl.create ~config formula in
  let outcome = Cdcl.solve solver in
  (outcome, check formula (Cdcl.proof solver))
