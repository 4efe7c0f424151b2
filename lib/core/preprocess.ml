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
exception Out_of_time

(* Elimination candidates have at most [elim_occ_cap] occurrences per
   polarity, and no committed resolvent is longer than [elim_clause_cap]
   literals: long resolvents make poor watch-list citizens. *)
let elim_occ_cap = 10
let elim_clause_cap = 8

(* Every pass works over one clause store with per-literal occurrence
   lists.  A slot is immutable once written: removing a clause clears
   [live], and strengthening removes the old slot and adds the shorter
   clause as a new one, so an entry of [occ.(l)] is valid exactly while
   its slot is live.  Dead entries are skipped on traversal and dropped
   before the next scan of the list — the SatELite discipline, matching
   the solver's lazy watcher deletion.

   A slot also carries its clause's signature [sg]: bit [l mod 63] is
   set for every literal [l].  A clause can contain another only if its
   signature contains the other's, so every candidate test in
   [backward] first compares signatures and reads the literals of a
   clause (with [count_marked]) only when they pass.  A rejection by
   signature is always one [count_marked] would have made, so the
   filter changes what the tests cost, never what they find. *)
type slot = { c : Clause.t; sg : int; mutable live : bool }

let lit_bit l = 1 lsl (l mod 63)
let no_slot = { c = Clause.of_list []; sg = 0; live = false }

(* The occurrences of one literal, oldest first, in [ds.(0 .. n-1)].
   [sgs] holds a copy of each slot's signature, so a scan rejects most
   candidates without following the pointer to their slot.  Scans run
   newest first. *)
type occ = { mutable ds : slot array; mutable sgs : int array; mutable n : int }

let push o d =
  if o.n = Array.length o.ds then begin
    let cap = max 4 (2 * o.n) in
    let ds = Array.make cap no_slot and sgs = Array.make cap 0 in
    Array.blit o.ds 0 ds 0 o.n;
    Array.blit o.sgs 0 sgs 0 o.n;
    o.ds <- ds;
    o.sgs <- sgs
  end;
  o.ds.(o.n) <- d;
  o.sgs.(o.n) <- d.sg;
  o.n <- o.n + 1

(* drops the dead slots, keeping the order of the live ones *)
let compact o =
  let j = ref 0 in
  for i = 0 to o.n - 1 do
    let d = o.ds.(i) in
    if d.live then begin
      o.ds.(!j) <- d;
      o.sgs.(!j) <- o.sgs.(i);
      incr j
    end
  done;
  Array.fill o.ds !j (o.n - !j) no_slot;
  o.n <- !j

(* the slots whose signature passes [ok], newest first *)
let iter_occ o ok f =
  for i = o.n - 1 downto 0 do
    if ok o.sgs.(i) then f o.ds.(i)
  done

let exists_occ o ok p =
  let rec go i = i >= 0 && ((ok o.sgs.(i) && p o.ds.(i)) || go (i - 1)) in
  go (o.n - 1)

type state = {
  nvars : int;
  assign : int array; (* var -> -1/0/1 *)
  frozen : bool array; (* var -> never eliminated *)
  store : slot Vec.t; (* insertion order, which is output order *)
  occ : occ array;
  nocc : int array; (* live occurrences per literal *)
  mark : bool array; (* per literal; scratch for [backward] *)
  fixed : Lit.t Queue.t; (* fixed, not yet propagated through [occ] *)
  touched : slot Queue.t; (* not yet checked by [backward] *)
  vars : int Queue.t; (* due a pure-literal check and an elimination attempt *)
  queued : bool array; (* var -> in [vars] or in the batch being tried *)
  mutable fix : (int * bool) list;
  mutable elim : elimination list; (* newest first *)
  emit : Types.proof_step -> unit; (* DRAT sink; a no-op without ?proof *)
  spent : float array option; (* seconds per [passes] entry, with ?metrics *)
  st : stats;
}

(* The per-pass timers [run] reports with [?metrics], indexed as
   [spent]: settling the fixed-literal and touched-clause queues (unit
   propagation, subsumption and strengthening), variable visits (pure
   literals and elimination) and failed-literal probing. *)
let passes =
  [| "preprocess/subsumption"; "preprocess/elimination"; "preprocess/probing" |]

(* [f ()], its time added to pass [k] when the run is timed; an
   untimed run reads no clock *)
let timed s k f =
  match s.spent with
  | None -> f ()
  | Some spent ->
    let t0 = Monotime.now_s () in
    let stop () = spent.(k) <- spent.(k) +. (Monotime.now_s () -. t0) in
    (match f () with
     | r ->
       stop ();
       r
     | exception e ->
       stop ();
       raise e)

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
     | `Unit | `Failed -> s.emit (Types.Add (Clause.of_list [ l ], [||]))
     | `Pure -> ());
    s.assign.(v) <- (if Lit.is_pos l then 1 else 0);
    s.fix <- (v, Lit.is_pos l) :: s.fix;
    Queue.add l s.fixed;
    (match reason with
     | `Unit -> s.st.units <- s.st.units + 1
     | `Pure -> s.st.pures <- s.st.pures + 1
     | `Failed -> s.st.failed_literals <- s.st.failed_literals + 1)

let touch_var s v =
  if not s.queued.(v) then begin
    s.queued.(v) <- true;
    Queue.add v s.vars
  end

(* Insert a clause simplified against the fixed assignment: satisfied
   clauses and tautologies vanish, false literals are dropped, units are
   fixed.  The argument's content must already be active in the proof
   (an input clause, or a clause the caller just emitted), so any
   simplification emits its replacement before deleting the original. *)
let add s c =
  let lits = Clause.to_list c in
  if Clause.is_tautology c then ()
  else if List.exists (fun l -> lit_value s l = 1) lits then
    s.emit (Types.Delete c)
  else
    match List.filter (fun l -> lit_value s l <> 0) lits with
    | [] -> raise Found_unsat
    | [ l ] ->
      fix_lit s `Unit l;
      s.emit (Types.Delete c)
    | free ->
      let c =
        if List.compare_lengths free lits = 0 then c
        else begin
          let stripped = Clause.of_list free in
          s.emit (Types.Add (stripped, [||]));
          s.emit (Types.Delete c);
          stripped
        end
      in
      let d =
        { c; sg = List.fold_left (fun g l -> g lor lit_bit l) 0 free;
          live = true }
      in
      Vec.push s.store d;
      List.iter
        (fun l ->
           push s.occ.(l) d;
           s.nocc.(l) <- s.nocc.(l) + 1)
        free;
      Queue.add d s.touched

(* Take a clause out of the store without a proof step; its variables
   are due another pure-literal check and elimination attempt. *)
let detach s d =
  d.live <- false;
  for k = 0 to Clause.size d.c - 1 do
    let l = Clause.get d.c k in
    s.nocc.(l) <- s.nocc.(l) - 1;
    touch_var s (Lit.var l)
  done

let kill s d =
  detach s d;
  s.emit (Types.Delete d.c)

(* A fixed literal kills the clauses it satisfies and strips its
   complement from the rest, re-adding them as touched clauses. *)
let propagate s l =
  let all _ = true in
  iter_occ s.occ.(l) all (fun d -> if d.live then kill s d);
  iter_occ s.occ.(Lit.negate l) all (fun d ->
      if d.live then begin
        detach s d;
        add s d.c
      end);
  (* neither literal occurs again: [add] drops both *)
  List.iter
    (fun l -> s.occ.(l) <- { ds = [||]; sgs = [||]; n = 0 })
    [ l; Lit.negate l ]

(* [occ.(l)] with its dead slots dropped for good *)
let live_occ s l =
  let o = s.occ.(l) in
  if o.n > s.nocc.(l) then compact o;
  o

let count_marked s c =
  let n = ref 0 in
  for k = 0 to Clause.size c - 1 do
    if s.mark.(Clause.get c k) then incr n
  done;
  !n

(* [d] loses [l]: the resolvent of [d] and its strengthener, emitted
   while both parents are still active, replaces [d]. *)
let strengthen s d l =
  let d' =
    Clause.of_list (List.filter (fun m -> m <> l) (Clause.to_list d.c))
  in
  s.emit (Types.Add (d', [||]));
  kill s d;
  s.st.strengthened <- s.st.strengthened + 1;
  add s d'

(* Subsumption and self-subsuming resolution seeded from one touched
   clause [cs], with [cs]'s literals marked.  It kills the clauses it
   subsumes and dies itself when an older clause subsumes it; it loses
   [l] when an older clause [(¬l ∨ R)] has [R ⊆ cs], and otherwise
   strengthens every [d ⊇ (cs \ {l}) ∪ {¬l}] by dropping [¬l].  The
   older-clause checks catch resolvents and strengthened clauses that
   arrive after their subsumer or strengthener was checked.  A touched
   clause also queues its variables: new occurrences can enable an
   elimination, for instance by completing a gate definition.  Each
   candidate [d] must pass a signature test before [count_marked] reads
   it: [sg cs ⊆ sg d] to be subsumed, [sg d ⊆ sg cs] to subsume,
   [sg d ⊆ sg cs ∪ bit ¬l] to strengthen [cs], and
   [sg cs \ bit l ⊆ sg d] to be strengthened. *)
let backward s cs =
  if cs.live then begin
    let c = cs.c and k = Clause.size cs.c in
    let rare = ref (Clause.get c 0) in
    for i = 0 to k - 1 do
      let l = Clause.get c i in
      s.mark.(l) <- true;
      touch_var s (Lit.var l);
      if s.nocc.(l) < s.nocc.(!rare) then rare := l
    done;
    let sg = cs.sg in
    let other d = d.live && d != cs in
    iter_occ (live_occ s !rare)
      (fun g -> sg land lnot g = 0)
      (fun d ->
         if other d && Clause.size d.c >= k && count_marked s d.c = k then begin
           kill s d;
           s.st.subsumed <- s.st.subsumed + 1
         end);
    let subsumer d =
      other d && Clause.size d.c < k && count_marked s d.c = Clause.size d.c
    in
    let within g = g land lnot sg = 0 in
    let rec subsumed i =
      i < k
      && (exists_occ (live_occ s (Clause.get c i)) within subsumer
          || subsumed (i + 1))
    in
    if subsumed 0 then begin
      kill s cs;
      s.st.subsumed <- s.st.subsumed + 1
    end
    else begin
      let strengthens_cs d =
        other d && Clause.size d.c <= k
        && count_marked s d.c = Clause.size d.c - 1
      in
      let rec self_subsume i =
        if i < k then begin
          let l = Clause.get c i in
          let nl = Lit.negate l in
          let o = live_occ s nl in
          let with_nl = sg lor lit_bit nl in
          if exists_occ o (fun g -> g land lnot with_nl = 0) strengthens_cs
          then strengthen s cs l
          else begin
            let rest = sg land lnot (lit_bit l) in
            iter_occ o
              (fun g -> rest land lnot g = 0)
              (fun d ->
                 if other d && Clause.size d.c >= k
                    && count_marked s d.c = k - 1
                 then strengthen s d nl);
            self_subsume (i + 1)
          end
        end
      in
      self_subsume 0
    end;
    for i = 0 to k - 1 do
      s.mark.(Clause.get c i) <- false
    done
  end

(* The size of the resolvent of [a] and [b] on [v], or [-1] when it is
   a tautology, counted on [mark] without building the clause. *)
let resolvent_size s v a b =
  let set a flag =
    for i = 0 to Clause.size a.c - 1 do
      let l = Clause.get a.c i in
      if Lit.var l <> v then s.mark.(l) <- flag
    done
  in
  set a true;
  let n = ref (Clause.size a.c - 1) and taut = ref false in
  for i = 0 to Clause.size b.c - 1 do
    let l = Clause.get b.c i in
    if Lit.var l <> v then
      if s.mark.(Lit.negate l) then taut := true
      else if not s.mark.(l) then incr n
  done;
  set a false;
  if !taut then -1 else !n

let try_eliminate s v =
  let lp = Lit.pos v and ln = Lit.neg_of_var v in
  let np = s.nocc.(lp) and nn = s.nocc.(ln) in
  if np + nn > 0 && np <= elim_occ_cap && nn <= elim_occ_cap then begin
    (* newest first *)
    let live l =
      let o = live_occ s l in
      List.init o.n (fun i -> o.ds.(o.n - 1 - i))
    in
    let pos = live lp and neg = live ln in
    (* Stage the resolvent set, given as an iterator over its clause
       pairs: it is built only when no resolvent exceeds the clause-size
       cap and the set does not outgrow the clauses removed, both
       checked on sizes alone. *)
    let limit = np + nn in
    let fits pairs =
      let count = ref 0 in
      match
        pairs (fun a b ->
            let n = resolvent_size s v a b in
            if n >= 0 then begin
              if n > elim_clause_cap || !count >= limit then raise Exit;
              incr count
            end)
      with
      | () -> true
      | exception Exit -> false
    in
    let resolve_pair a b =
      let side d = List.filter (fun l -> Lit.var l <> v) (Clause.to_list d.c) in
      Clause.of_list (side a @ side b)
    in
    (* newest first, as the commit emits and adds them *)
    let stage pairs =
      if not (fits pairs) then None
      else begin
        let resolvents = ref [] in
        pairs (fun a b ->
            let r = resolve_pair a b in
            if not (Clause.is_tautology r) then resolvents := r :: !resolvents);
        Some (!resolvents, List.length !resolvents)
      end
    in
    (* Definition substitution (SatELite): when [v] is the output of an
       AND/OR-shaped gate — one clause (p ∨ m₁ ∨ … ∨ mₖ) whose every [mᵢ]
       has a matching binary (¬p ∨ ¬mᵢ) — only gate × non-gate
       resolvents are needed; non-gate × non-gate pairs are implied by
       them.  Tseitin-encoded netlists are full of such definitions, and
       the restricted set lets fanout variables be eliminated where the
       full product would blow the bound. *)
    let find_definition p side_p side_n =
      match List.filter (fun b -> Clause.size b.c = 2) side_n with
      | [] -> None
      | binaries ->
        List.find_map
          (fun d ->
             let others =
               List.filter (fun l -> not (Lit.equal l p)) (Clause.to_list d.c)
             in
             if others = [] then None
             else
               let bins =
                 List.map
                   (fun m ->
                      List.find_opt
                        (fun b -> Clause.mem (Lit.negate m) b.c)
                        binaries)
                   others
               in
               if List.for_all Option.is_some bins then
                 Some (d, List.filter_map Fun.id bins)
               else None)
          side_p
    in
    let substitution_pairs () =
      let pairs_for (def, bins) side_p side_n =
        let rest_n = List.filter (fun b -> not (List.memq b bins)) side_n in
        let rest_p = List.filter (fun a -> a != def) side_p in
        fun f ->
          List.iter (f def) rest_n;
          List.iter (fun b -> List.iter (fun a -> f a b) rest_p) bins
      in
      match find_definition lp pos neg with
      | Some d -> Some (pairs_for d pos neg)
      | None -> (
          match find_definition ln neg pos with
          | Some d -> Some (pairs_for d neg pos)
          | None -> None)
    in
    let staged =
      match substitution_pairs () with
      | Some pairs -> stage pairs
      | None -> stage (fun f -> List.iter (fun a -> List.iter (f a) neg) pos)
    in
    match staged with
    | None -> ()
    | Some (resolvents, count) ->
      (* commit: emit every resolvent into the proof while both parent
         sides are still active (each is RUP against them), push the
         removed clauses on the elimination stack (complete_model
         replays them), then swap in the resolvents *)
      List.iter (fun r -> s.emit (Types.Add (r, [||]))) resolvents;
      s.elim <-
        { evar = v;
          pos = List.map (fun d -> d.c) pos;
          neg = List.map (fun d -> d.c) neg }
        :: s.elim;
      List.iter (kill s) pos;
      List.iter (kill s) neg;
      s.st.eliminated <- s.st.eliminated + 1;
      s.st.elim_clauses_removed <- s.st.elim_clauses_removed + limit;
      s.st.elim_resolvents <- s.st.elim_resolvents + count;
      List.iter (add s) resolvents
  end

let live_clauses s =
  List.filter_map (fun d -> if d.live then Some d.c else None)
    (Vec.to_list s.store)

(* Probes both phases of every open variable on a solver built from the
   live clauses; failed literals are fixed (and so queued for
   propagation).  Returns whether any literal failed. *)
let probe ?deadline s =
  let solver =
    Cdcl.create (Cnf.Formula.of_clauses ~nvars:s.nvars (live_clauses s))
  in
  if not (Cdcl.propagate_root solver) then raise Found_unsat;
  let survives l =
    match Cdcl.probe_push solver l with
    | Cdcl.Probe_ok _ ->
      Cdcl.probe_pop solver;
      true
    | Cdcl.Probe_conflict -> false
  in
  let found = ref false in
  let fold_back l =
    fix_lit s `Failed l;
    if not (Cdcl.probe_assert solver l) then raise Found_unsat;
    found := true
  in
  for v = 0 to s.nvars - 1 do
    if Monotime.past deadline then raise Out_of_time;
    if s.assign.(v) < 0 && Cdcl.value_var solver v < 0 then begin
      let pos_ok = survives (Lit.pos v) in
      let neg_ok = survives (Lit.neg_of_var v) in
      match pos_ok, neg_ok with
      | false, false ->
        (* both phases fail: [v] is RUP (assuming ¬v propagates to a
           conflict); once added, the clause set is root-inconsistent
           and the Found_unsat handler's empty clause is RUP too *)
        s.emit (Types.Add (Clause.of_list [ Lit.pos v ], [||]));
        raise Found_unsat
      | false, true -> fold_back (Lit.neg_of_var v)
      | true, false -> fold_back (Lit.pos v)
      | true, true -> ()
    end
  done;
  !found

(* Propagates every fixed literal, and checks touched clauses until the
   deadline has passed: an unchecked clause is at worst redundant. *)
let settle ?deadline s =
  let rec go () =
    match Queue.take_opt s.fixed with
    | Some l ->
      propagate s l;
      go ()
    | None ->
      if not (Queue.is_empty s.touched || Monotime.past deadline) then begin
        backward s (Queue.take s.touched);
        go ()
      end
  in
  timed s 0 go

let visit s ~pures v =
  s.queued.(v) <- false;
  if s.assign.(v) < 0 then
    timed s 1 (fun () ->
        let p = s.nocc.(Lit.pos v) and q = s.nocc.(Lit.neg_of_var v) in
        if pures && p > 0 && q = 0 then fix_lit s `Pure (Lit.pos v)
        else if pures && q > 0 && p = 0 then fix_lit s `Pure (Lit.neg_of_var v)
        else if not s.frozen.(v) then try_eliminate s v)

let run ?metrics ?pures ?(probe_failed_literals = false) ?(elim = true)
    ?(frozen = []) ?proof ?deadline f =
  (* Pure-literal fixes are RAT but not RUP, so they cannot enter the
     DRAT stream this pipeline emits: with a proof sink, [pures]
     defaults to — and must be — off. *)
  let pures = match pures with Some p -> p | None -> proof = None in
  if pures && proof <> None then
    invalid_arg "Preprocess.run: ~pures is incompatible with ~proof";
  let nvars = Cnf.Formula.nvars f in
  let nlits = 2 * max 1 nvars in
  let s =
    {
      nvars;
      assign = Array.make (max 1 nvars) (-1);
      (* without [elim], every variable is frozen *)
      frozen = Array.make (max 1 nvars) (not elim);
      store = Vec.create ~dummy:no_slot ();
      occ = Array.init nlits (fun _ -> { ds = [||]; sgs = [||]; n = 0 });
      nocc = Array.make nlits 0;
      mark = Array.make nlits false;
      fixed = Queue.create ();
      touched = Queue.create ();
      vars = Queue.create ();
      queued = Array.make (max 1 nvars) false;
      fix = [];
      elim = [];
      emit = (match proof with Some e -> e | None -> fun _ -> ());
      spent = Option.map (fun _ -> Array.make (Array.length passes) 0.) metrics;
      st =
        { units = 0; pures = 0; subsumed = 0; strengthened = 0;
          failed_literals = 0; eliminated = 0; elim_clauses_removed = 0;
          elim_resolvents = 0 };
    }
  in
  List.iter (fun v -> if v >= 0 && v < nvars then s.frozen.(v) <- true) frozen;
  let finish result =
    (match metrics, s.spent with
     | Some m, Some spent ->
       Array.iteri (fun k name -> Metrics.add_time m name spent.(k)) passes
     | _ -> ());
    result
  in
  try
    Array.iter (add s) (Cnf.Formula.clauses f);
    for v = 0 to nvars - 1 do
      touch_var s v
    done;
    (* Touched variables are tried in batches, cheapest first: few
       occurrences mean few resolvents.  Each step fixes or eliminates a
       variable, kills a clause or removes a literal, so the loop ends
       without a round cap, once a batch touches no variable and probing
       (when on) finds no failed literal.  The deadline is checked before
       each visit, probe and subsumption check; once it has passed, a
       last [settle] propagates the fixed literals, which leaves the
       store and the elimination stack consistent, and the clauses so
       far are returned as they stand. *)
    let cost v = s.nocc.(Lit.pos v) + s.nocc.(Lit.neg_of_var v) in
    let rec loop () =
      settle ?deadline s;
      let batch = Array.of_seq (Queue.to_seq s.vars) in
      Queue.clear s.vars;
      Array.sort (fun a b -> Int.compare (cost a) (cost b)) batch;
      Array.iter
        (fun v ->
           if Monotime.past deadline then raise Out_of_time;
           visit s ~pures v;
           settle ?deadline s)
        batch;
      let found =
        probe_failed_literals && timed s 2 (fun () -> probe ?deadline s)
      in
      if found || not (Queue.is_empty s.vars) then loop ()
    in
    (try loop () with Out_of_time -> settle ?deadline s);
    finish
      (Simplified
         {
           formula = Cnf.Formula.of_clauses ~nvars (live_clauses s);
           fix = List.rev s.fix;
           elim = s.elim;
           stats = s.st;
         })
  with Found_unsat ->
    (* every raise site leaves the active clause set root-inconsistent
       under unit propagation, so the empty clause is RUP and the
       emitted stream is a complete refutation *)
    s.emit (Types.Add (Clause.of_list [], [||]));
    finish Unsat

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
     vars_eliminated=%d clauses_removed=%d resolvents_added=%d"
    st.units st.pures st.subsumed st.strengthened st.failed_literals
    st.eliminated st.elim_clauses_removed st.elim_resolvents
