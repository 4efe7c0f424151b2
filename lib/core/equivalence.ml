module Lit = Cnf.Lit
module Clause = Cnf.Clause

type result = Unsat_equiv | Reduced of reduced

and reduced = {
  formula : Cnf.Formula.t;
  rep : Lit.t array;
  merged : int;
}

exception Out_of_time

(* Iterative Tarjan SCC over the literal implication graph; the
   deadline is checked before each step of the search. *)
let sccs ?deadline nlits succ =
  let index = Array.make nlits (-1) in
  let low = Array.make nlits 0 in
  let on_stack = Array.make nlits false in
  let comp = Array.make nlits (-1) in
  let stack = Vec.create ~dummy:0 () in
  let counter = ref 0 and ncomp = ref 0 in
  let visit root =
    (* explicit DFS stack: (node, next successor index) *)
    let call = Vec.create ~dummy:(0, 0) () in
    Vec.push call (root, 0);
    index.(root) <- !counter;
    low.(root) <- !counter;
    incr counter;
    Vec.push stack root;
    on_stack.(root) <- true;
    while not (Vec.is_empty call) do
      if Monotime.past deadline then raise Out_of_time;
      let node, si = Vec.pop call in
      let children = succ node in
      if si < List.length children then begin
        Vec.push call (node, si + 1);
        let child = List.nth children si in
        if index.(child) < 0 then begin
          index.(child) <- !counter;
          low.(child) <- !counter;
          incr counter;
          Vec.push stack child;
          on_stack.(child) <- true;
          Vec.push call (child, 0)
        end
        else if on_stack.(child) then low.(node) <- min low.(node) index.(child)
      end
      else begin
        if low.(node) = index.(node) then begin
          let continue = ref true in
          while !continue do
            let w = Vec.pop stack in
            on_stack.(w) <- false;
            comp.(w) <- !ncomp;
            if w = node then continue := false
          done;
          incr ncomp
        end;
        if not (Vec.is_empty call) then begin
          let parent, _ = Vec.last call in
          low.(parent) <- min low.(parent) low.(node)
        end
      end
    done
  in
  for v = 0 to nlits - 1 do
    if index.(v) < 0 then visit v
  done;
  (comp, !ncomp)

(* Substitutes the minimum literal of each component for its members,
   unless some component holds both phases of a variable. *)
let reduce f comp =
  let n = Cnf.Formula.nvars f in
  let min_of = Hashtbl.create 16 in
  for l = Array.length comp - 1 downto 0 do
    Hashtbl.replace min_of comp.(l) l
  done;
  let contradiction = ref false in
  for v = 0 to n - 1 do
    if comp.(Lit.pos v) = comp.(Lit.neg_of_var v) then contradiction := true
  done;
  if !contradiction then Unsat_equiv
  else begin
    let rep = Array.init (max 1 n) (fun v -> Hashtbl.find min_of comp.(Lit.pos v)) in
    let merged = ref 0 in
    for v = 0 to n - 1 do
      if rep.(v) <> Lit.pos v then incr merged
    done;
    let g = Cnf.Formula.create ~nvars:n () in
    let map_lit l =
      let r = rep.(Lit.var l) in
      if Lit.is_pos l then r else Lit.negate r
    in
    Cnf.Formula.iter_clauses f (fun c ->
        Cnf.Formula.add_clause g
          (Clause.of_list (List.map map_lit (Clause.to_list c))));
    Reduced { formula = g; rep; merged = !merged }
  end

let detect ?deadline f =
  let n = Cnf.Formula.nvars f in
  let nlits = 2 * max 1 n in
  let adj = Array.make nlits [] in
  Cnf.Formula.iter_clauses f (fun c ->
      match Clause.to_list c with
      | [ a; b ] ->
        adj.(Lit.negate a) <- b :: adj.(Lit.negate a);
        adj.(Lit.negate b) <- a :: adj.(Lit.negate b)
      | _ -> ());
  match sccs ?deadline nlits (fun l -> adj.(l)) with
  | comp, _ -> reduce f comp
  | exception Out_of_time ->
    Reduced { formula = f; rep = Array.init (max 1 n) Lit.pos; merged = 0 }

let complete_model ~rep model =
  let m = Array.copy model in
  Array.iteri
    (fun v r ->
       if v < Array.length m then begin
         let base = model.(Lit.var r) in
         m.(v) <- (if Lit.is_pos r then base else not base)
       end)
    rep;
  m
