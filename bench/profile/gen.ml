(* Seeded inputs for the workloads.  Every family is a function of its
   size parameters and, where it has one, an instance seed drawn from
   the workload seed; the program under test only sees the text
   rendered from these values. *)

(* Instance seeds for one workload: the same workload seed always gives
   the same sequence. *)
let seeds ~seed n =
  let rng = Sat.Rng.create (seed * 7919 + 17) in
  List.init n (fun _ -> 1 + Sat.Rng.int rng 1_000_000_000)

let php pigeons holes =
  let v i j = Cnf.Lit.pos ((i * holes) + j) in
  let f = Cnf.Formula.create ~nvars:(pigeons * holes) () in
  for i = 0 to pigeons - 1 do
    Cnf.Formula.add_clause_l f (List.init holes (fun j -> v i j))
  done;
  for j = 0 to holes - 1 do
    for i1 = 0 to pigeons - 1 do
      for i2 = i1 + 1 to pigeons - 1 do
        Cnf.Formula.add_clause_l f
          [ Cnf.Lit.negate (v i1 j); Cnf.Lit.negate (v i2 j) ]
      done
    done
  done;
  f

let random_3sat ~seed ~nvars ~ratio =
  let rng = Sat.Rng.create seed in
  let f = Cnf.Formula.create ~nvars () in
  for _ = 1 to int_of_float (float_of_int nvars *. ratio) do
    let rec distinct acc n =
      if n = 0 then acc
      else
        let v = Sat.Rng.int rng nvars in
        if List.mem v acc then distinct acc n else distinct (v :: acc) (n - 1)
    in
    Cnf.Formula.add_clause_l f
      (List.map (fun v -> Cnf.Lit.of_var v (Sat.Rng.bool rng)) (distinct [] 3))
  done;
  f

(* CNF of the miter of [a] and [b]: unsatisfiable iff they are
   equivalent. *)
let miter a b = fst (Circuit.Miter.to_cnf a b)

let clauses f =
  let out = ref [] in
  Cnf.Formula.iter_clauses f (fun c ->
      out := List.map Cnf.Lit.to_dimacs (Cnf.Clause.to_list c) :: !out);
  List.rev !out

let satisfies clauses (model : int -> bool) =
  List.for_all (List.exists (fun l -> model (abs l - 1) = (l > 0))) clauses

(* 16 rounds of 62-way random simulation. *)
let distinguishable ~seed a b =
  let rng = Sat.Rng.create seed in
  let n = List.length (Circuit.Netlist.inputs a) in
  let rec go k =
    k > 0
    &&
    let words = Circuit.Simulate.random_words rng n in
    Circuit.Simulate.parallel_outputs a words
    <> Circuit.Simulate.parallel_outputs b words
    || go (k - 1)
  in
  go 16

(* The first one-gate mutants of [c] that random simulation tells apart
   from it, so every mutant is inequivalent by construction. *)
let mutants ~seed ~count c =
  let rec go acc s =
    if List.length acc = count then List.rev acc
    else
      let m, _ = Circuit.Transform.inject_bug ~seed:s c in
      go (if distinguishable ~seed:s c m then m :: acc else acc) (s + 1)
  in
  go [] seed
