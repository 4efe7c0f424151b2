type t = Lit.t array

let of_list lits =
  let sorted = List.sort_uniq Lit.compare lits in
  Array.of_list sorted

let of_array lits =
  let a = Array.copy lits in
  let n = Array.length a in
  (* insertion sort: learnt and deleted clauses are short *)
  if n > 64 then Array.sort Lit.compare a
  else
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
  (* drop duplicates, now adjacent *)
  let m = ref (min 1 n) in
  for i = 1 to n - 1 do
    if a.(i) <> a.(!m - 1) then begin
      a.(!m) <- a.(i);
      incr m
    end
  done;
  if !m = n then a else Array.sub a 0 !m

let of_dimacs_list ints = of_list (List.map Lit.of_dimacs ints)
let to_list c = Array.to_list c
let to_array c = Array.copy c
let size c = Array.length c
let get c i = c.(i)
let is_empty c = Array.length c = 0

(* Literals are sorted, so l and negate l are adjacent when both present. *)
let is_tautology c =
  let n = Array.length c in
  let rec check i =
    if i + 1 >= n then false
    else if Lit.var c.(i) = Lit.var c.(i + 1) then true
    else check (i + 1)
  in
  check 0

let mem l c = Array.exists (Lit.equal l) c
let equal a b = a = b
let compare a b = Stdlib.compare a b
let subsumes c d = Array.for_all (fun l -> mem l d) c

let eval value c =
  Array.exists (fun l -> value (Lit.var l) = Lit.is_pos l) c

let map_vars f c =
  let image l =
    let l' = f (Lit.var l) in
    if Lit.is_pos l then l' else Lit.negate l'
  in
  of_list (List.map image (to_list c))

let pp ppf c =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Lit.pp)
    (to_list c)

let to_string c = Format.asprintf "%a" pp c
