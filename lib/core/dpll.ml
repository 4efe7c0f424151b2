module Lit = Cnf.Lit

type state = {
  cfg : Types.config;
  stats : Types.stats;
  rng : Rng.t;
  nvars : int;
  clauses : int array array;
  occ : int list array;
  ntrue : int array;
  nfree : int array;
  assign : int array;
  trail : int Vec.t;
  (* decision stack: (trail size before the decision, literal, flipped) *)
  decisions : (int * int * bool) Vec.t;
  mutable qhead : int;
  jw : float array;
}

let value s l =
  let a = s.assign.(Lit.var l) in
  if a < 0 then -1 else a lxor (l land 1)

let assign_lit s l =
  s.assign.(Lit.var l) <- (if Lit.is_pos l then 1 else 0);
  Vec.push s.trail l

(* Process trail entries from qhead: update counters, enqueue implied
   literals; returns false on conflict (counters stay consistent). *)
let propagate s =
  let conflict = ref false in
  while (not !conflict) && s.qhead < Vec.size s.trail do
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.stats.propagations <- s.stats.propagations + 1;
    let units = ref [] in
    List.iter
      (fun ci ->
         s.nfree.(ci) <- s.nfree.(ci) - 1;
         if s.ntrue.(ci) = 0 then begin
           if s.nfree.(ci) = 0 then conflict := true
           else if s.nfree.(ci) = 1 then units := ci :: !units
         end)
      s.occ.(Lit.negate p);
    List.iter (fun ci -> s.ntrue.(ci) <- s.ntrue.(ci) + 1) s.occ.(p);
    if not !conflict then
      List.iter
        (fun ci ->
           (* a sibling unit from this batch may already have consumed the
              clause's last free literal; counters catch that later *)
           if s.ntrue.(ci) = 0 && s.nfree.(ci) = 1 then begin
             let c = s.clauses.(ci) in
             let rec free i =
               if i >= Array.length c then None
               else if value s c.(i) < 0 then Some c.(i)
               else free (i + 1)
             in
             match free 0 with Some l -> assign_lit s l | None -> ()
           end)
        !units
  done;
  not !conflict

let unassign_to s bound =
  while Vec.size s.trail > bound do
    let l = Vec.pop s.trail in
    if Vec.size s.trail < s.qhead then begin
      (* this entry's counter updates were applied; reverse them *)
      List.iter (fun ci -> s.nfree.(ci) <- s.nfree.(ci) + 1) s.occ.(Lit.negate l);
      List.iter (fun ci -> s.ntrue.(ci) <- s.ntrue.(ci) - 1) s.occ.(l)
    end;
    s.assign.(Lit.var l) <- -1
  done;
  s.qhead <- min s.qhead bound

(* chronological backtracking: flip the deepest unflipped decision *)
let rec backtrack s =
  if Vec.is_empty s.decisions then false
  else begin
    let bound, lit, flipped = Vec.pop s.decisions in
    unassign_to s bound;
    if flipped then backtrack s
    else begin
      Vec.push s.decisions (bound, Lit.negate lit, true);
      assign_lit s (Lit.negate lit);
      true
    end
  end

(* --- decision heuristics (database-scanning forms) --- *)

let clause_counts s ~restrict_to_min =
  let counts = Hashtbl.create 64 in
  let min_size = ref max_int in
  if restrict_to_min then
    Array.iteri
      (fun ci _ ->
         if s.ntrue.(ci) = 0 && s.nfree.(ci) > 0 && s.nfree.(ci) < !min_size
         then min_size := s.nfree.(ci))
      s.clauses;
  Array.iteri
    (fun ci c ->
       if s.ntrue.(ci) = 0 && s.nfree.(ci) > 0
          && ((not restrict_to_min) || s.nfree.(ci) = !min_size)
       then
         Array.iter
           (fun l ->
              if value s l < 0 then
                Hashtbl.replace counts l
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
           c)
    s.clauses;
  counts

let best_of_counts counts =
  Hashtbl.fold
    (fun l c acc ->
       match acc with
       | Some (_, bc) when bc > c -> acc
       | Some (bl, bc) when bc = c && bl < l -> acc
       | Some _ | None -> Some (l, c))
    counts None
  |> Option.map fst

let decide s =
  let fixed () =
    let rec go v =
      if v >= s.nvars then None
      else if s.assign.(v) < 0 then Some (Lit.neg_of_var v)
      else go (v + 1)
    in
    go 0
  in
  let heuristic_pick =
    match s.cfg.heuristic with
    | Types.Dlis -> best_of_counts (clause_counts s ~restrict_to_min:false)
    | Types.Moms -> best_of_counts (clause_counts s ~restrict_to_min:true)
    | Types.Jeroslow_wang ->
      let best = ref (-1) and bw = ref neg_infinity in
      for l = 0 to (2 * s.nvars) - 1 do
        if value s l < 0 && s.jw.(l) > !bw then begin
          best := l;
          bw := s.jw.(l)
        end
      done;
      if !best < 0 then None else Some !best
    | Types.Random_order ->
      let free = ref [] and n = ref 0 in
      for v = s.nvars - 1 downto 0 do
        if s.assign.(v) < 0 then begin
          free := v :: !free;
          incr n
        end
      done;
      if !n = 0 then None
      else Some (Lit.of_var (List.nth !free (Rng.int s.rng !n)) (Rng.bool s.rng))
    | Types.Vsids | Types.Fixed_order -> fixed ()
  in
  match heuristic_pick with Some l -> Some l | None -> fixed ()

let budget_exceeded s =
  (match s.cfg.max_conflicts with
   | Some m -> s.stats.conflicts >= m
   | None -> false)
  ||
  match s.cfg.max_decisions with
  | Some m -> s.stats.decisions >= m
  | None -> false

let solve ?(config = Types.default) ?(assumptions = []) ?deadline f =
  let n = Cnf.Formula.nvars f in
  let clause_arrays =
    Cnf.Formula.clauses f
    |> Array.map (fun c -> Array.of_list (Cnf.Clause.to_list c))
  in
  let s =
    {
      cfg = config;
      stats = Types.mk_stats ();
      rng = Rng.create config.Types.random_seed;
      nvars = n;
      clauses = clause_arrays;
      occ = Array.make (max 1 (2 * n)) [];
      ntrue = Array.make (max 1 (Array.length clause_arrays)) 0;
      nfree = Array.map Array.length clause_arrays;
      assign = Array.make (max 1 n) (-1);
      trail = Vec.create ~dummy:0 ();
      decisions = Vec.create ~dummy:(0, 0, false) ();
      qhead = 0;
      jw = Array.make (max 1 (2 * n)) 0.;
    }
  in
  Array.iteri
    (fun ci c ->
       Array.iter
         (fun l ->
            s.occ.(l) <- ci :: s.occ.(l);
            s.jw.(l) <- s.jw.(l) +. (2. ** float_of_int (-Array.length c)))
         c)
    s.clauses;
  let empty_clause = Array.exists (fun c -> Array.length c = 0) s.clauses in
  (* formula units *)
  Array.iter
    (fun c ->
       if Array.length c = 1 && value s c.(0) < 0 then assign_lit s c.(0))
    s.clauses;
  let result = ref None in
  if empty_clause then result := Some Types.Unsat
  else if Monotime.past deadline then
    result := Some (Types.Unknown "timeout");
  (* assumptions become forced first decisions that are never flipped *)
  let assumptions = Array.of_list assumptions in
  let n_assumed = ref 0 in
  while !result = None do
    if not (propagate s) then begin
      s.stats.conflicts <- s.stats.conflicts + 1;
      if budget_exceeded s then result := Some (Types.Unknown "budget")
      else if Monotime.past deadline then
        result := Some (Types.Unknown "timeout")
      else if not (backtrack s) then
        result :=
          Some
            (if Array.length assumptions = 0 then Types.Unsat
             else Types.Unsat_assuming (Array.to_list assumptions))
    end
    else if budget_exceeded s then result := Some (Types.Unknown "budget")
    else if !n_assumed < Array.length assumptions then begin
      let a = assumptions.(!n_assumed) in
      incr n_assumed;
      match value s a with
      | 1 -> Vec.push s.decisions (Vec.size s.trail, a, true)
      | 0 ->
        result := Some (Types.Unsat_assuming (Array.to_list assumptions))
      | _ ->
        Vec.push s.decisions (Vec.size s.trail, a, true);
        assign_lit s a
    end
    else
      match decide s with
      | None ->
        let m = Array.init s.nvars (fun v -> s.assign.(v) = 1) in
        result := Some (Types.Sat m)
      | Some l ->
        s.stats.decisions <- s.stats.decisions + 1;
        s.stats.max_level <- max s.stats.max_level (Vec.size s.decisions + 1);
        Vec.push s.decisions (Vec.size s.trail, l, false);
        assign_lit s l
  done;
  (Option.get !result, s.stats)
