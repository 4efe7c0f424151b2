module Lit = Cnf.Lit

type algorithm = Gsat | Walksat of float

type config = {
  algorithm : algorithm;
  max_flips : int;
  max_tries : int;
  seed : int;
}

let default =
  { algorithm = Walksat 0.5; max_flips = 100_000; max_tries = 10; seed = 1 }

type result = { outcome : Types.outcome; flips : int; tries : int }

type state = {
  nvars : int;
  clauses : int array array;
  occ : int list array;      (* literal -> clause indices containing it *)
  assign : bool array;
  ntrue : int array;         (* per clause: satisfied literal count *)
  unsat : int Vec.t;         (* indices of currently unsatisfied clauses *)
  unsat_pos : int array;     (* clause -> position in [unsat] or -1 *)
  rng : Rng.t;
}

let lit_true s l = s.assign.(Lit.var l) = Lit.is_pos l

let add_unsat s ci =
  if s.unsat_pos.(ci) < 0 then begin
    s.unsat_pos.(ci) <- Vec.size s.unsat;
    Vec.push s.unsat ci
  end

let remove_unsat s ci =
  let pos = s.unsat_pos.(ci) in
  if pos >= 0 then begin
    let lastc = Vec.last s.unsat in
    Vec.set s.unsat pos lastc;
    s.unsat_pos.(lastc) <- pos;
    ignore (Vec.pop s.unsat);
    s.unsat_pos.(ci) <- -1
  end

let flip s v =
  let old_lit = Lit.of_var v s.assign.(v) in
  s.assign.(v) <- not s.assign.(v);
  List.iter
    (fun ci ->
       s.ntrue.(ci) <- s.ntrue.(ci) - 1;
       if s.ntrue.(ci) = 0 then add_unsat s ci)
    s.occ.(old_lit);
  List.iter
    (fun ci ->
       s.ntrue.(ci) <- s.ntrue.(ci) + 1;
       if s.ntrue.(ci) = 1 then remove_unsat s ci)
    s.occ.(Lit.negate old_lit)

(* clauses that would newly become unsatisfied if [v] flipped *)
let break_count s v =
  let crit = Lit.of_var v s.assign.(v) in
  List.fold_left
    (fun acc ci -> if s.ntrue.(ci) = 1 then acc + 1 else acc)
    0 s.occ.(crit)

(* clauses newly satisfied minus newly broken *)
let gain s v =
  let crit = Lit.of_var v s.assign.(v) in
  let makes =
    List.fold_left
      (fun acc ci -> if s.ntrue.(ci) = 0 then acc + 1 else acc)
      0
      s.occ.(Lit.negate crit)
  in
  makes - break_count s v

let random_restart s =
  for v = 0 to s.nvars - 1 do
    s.assign.(v) <- Rng.bool s.rng
  done;
  Vec.clear s.unsat;
  Array.fill s.unsat_pos 0 (Array.length s.unsat_pos) (-1);
  Array.iteri
    (fun ci c ->
       let n = Array.fold_left (fun acc l -> if lit_true s l then acc + 1 else acc) 0 c in
       s.ntrue.(ci) <- n;
       if n = 0 && Array.length c > 0 then add_unsat s ci)
    s.clauses

let pick_walksat s noise =
  let ci = Vec.get s.unsat (Rng.int s.rng (Vec.size s.unsat)) in
  let c = s.clauses.(ci) in
  if Rng.float s.rng < noise then Lit.var c.(Rng.int s.rng (Array.length c))
  else begin
    let best = ref (Lit.var c.(0)) and bb = ref max_int in
    Array.iter
      (fun l ->
         let b = break_count s (Lit.var l) in
         if b < !bb then begin
           bb := b;
           best := Lit.var l
         end)
      c;
    !best
  end

let pick_gsat s =
  let best = ref 0 and bg = ref min_int in
  for v = 0 to s.nvars - 1 do
    let g = gain s v in
    if g > !bg then begin
      bg := g;
      best := v
    end
  done;
  !best

(* the clock is read once per this many flips *)
let clock_interval = 1024

let solve ?(config = default) ?deadline f =
  let n = Cnf.Formula.nvars f in
  let clause_arrays =
    Cnf.Formula.clauses f
    |> Array.map (fun c -> Array.of_list (Cnf.Clause.to_list c))
  in
  let nclauses = Array.length clause_arrays in
  let s =
    {
      nvars = n;
      clauses = clause_arrays;
      occ = Array.make (max 1 (2 * n)) [];
      assign = Array.make (max 1 n) false;
      ntrue = Array.make (max 1 nclauses) 0;
      unsat = Vec.create ~dummy:0 ();
      unsat_pos = Array.make (max 1 nclauses) (-1);
      rng = Rng.create config.seed;
    }
  in
  Array.iteri
    (fun ci c -> Array.iter (fun l -> s.occ.(l) <- ci :: s.occ.(l)) c)
    s.clauses;
  let has_empty = Array.exists (fun c -> Array.length c = 0) s.clauses in
  let flips = ref 0 and tries = ref 0 in
  let found = ref None in
  let timed_out = ref false in
  while
    !found = None && !tries < config.max_tries && (not has_empty)
    && not !timed_out
  do
    incr tries;
    random_restart s;
    let local_flips = ref 0 in
    while !found = None && !local_flips < config.max_flips && not !timed_out do
      if Vec.is_empty s.unsat then found := Some (Array.copy s.assign)
      else if !flips mod clock_interval = 0 && Monotime.past deadline then
        timed_out := true
      else begin
        incr local_flips;
        incr flips;
        let v =
          match config.algorithm with
          | Walksat noise -> pick_walksat s noise
          | Gsat -> pick_gsat s
        in
        flip s v
      end
    done;
    if !found = None && Vec.is_empty s.unsat then
      found := Some (Array.copy s.assign)
  done;
  let outcome =
    match !found with
    | Some m -> Types.Sat m
    | None when !timed_out -> Types.Unknown "timeout"
    | None -> Types.Unknown "local search: flip budget exhausted"
  in
  { outcome; flips = !flips; tries = !tries }
