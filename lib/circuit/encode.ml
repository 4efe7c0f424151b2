module Lit = Cnf.Lit
module Clause = Cnf.Clause

(* Table 1.  For AND (x = AND(w1..wk)): (~x + wi) for each i, and
   (x + ~w1 + ... + ~wk); the others follow by duality/inversion. *)
let gate_clauses ~out ~ins g =
  let neg = Lit.negate in
  let mk = Clause.of_list in
  match g, ins with
  | Gate.And, _ ->
    mk (out :: List.map neg ins) :: List.map (fun w -> mk [ neg out; w ]) ins
  | Gate.Nand, _ ->
    mk (neg out :: List.map neg ins) :: List.map (fun w -> mk [ out; w ]) ins
  | Gate.Or, _ ->
    mk (neg out :: ins) :: List.map (fun w -> mk [ out; neg w ]) ins
  | Gate.Nor, _ ->
    mk (out :: ins) :: List.map (fun w -> mk [ neg out; neg w ]) ins
  | Gate.Not, [ w ] -> [ mk [ out; w ]; mk [ neg out; neg w ] ]
  | Gate.Buf, [ w ] -> [ mk [ out; neg w ]; mk [ neg out; w ] ]
  | Gate.Xor, [ a; b ] ->
    [ mk [ neg out; a; b ]; mk [ neg out; neg a; neg b ];
      mk [ out; neg a; b ]; mk [ out; a; neg b ] ]
  | Gate.Xnor, [ a; b ] ->
    [ mk [ out; a; b ]; mk [ out; neg a; neg b ];
      mk [ neg out; neg a; b ]; mk [ neg out; a; neg b ] ]
  | (Gate.Xor | Gate.Xnor), _ ->
    invalid_arg "Encode.gate_clauses: n-ary XOR/XNOR must be decomposed"
  | (Gate.Not | Gate.Buf), _ -> invalid_arg "Encode.gate_clauses: arity"

type mapping = {
  formula : Cnf.Formula.t;
  lit_of_node : Netlist.node_id -> Cnf.Lit.t;
}

let fresh_lit f = Lit.pos (Cnf.Formula.fresh_var f)

let add_gate_cnf f ~out ~ins g =
  match g with
  | Gate.Xor | Gate.Xnor when List.length ins > 2 ->
    (* left-to-right chain of binary XORs; the final stage absorbs the
       possible inversion *)
    let rec chain acc = function
      | [] -> acc
      | [ last ] ->
        let final = if g = Gate.Xor then Gate.Xor else Gate.Xnor in
        List.iter (Cnf.Formula.add_clause f)
          (gate_clauses ~out ~ins:[ acc; last ] final);
        out
      | w :: rest ->
        let aux = fresh_lit f in
        List.iter (Cnf.Formula.add_clause f)
          (gate_clauses ~out:aux ~ins:[ acc; w ] Gate.Xor);
        chain aux rest
    in
    (match ins with
     | a :: rest -> ignore (chain a rest)
     | [] -> invalid_arg "Encode: empty XOR")
  | _ -> List.iter (Cnf.Formula.add_clause f) (gate_clauses ~out ~ins g)

let encode_into f c =
  let n = Netlist.num_nodes c in
  let map = Array.make (max 1 n) (-1) in
  for id = 0 to n - 1 do
    let out = fresh_lit f in
    map.(id) <- out;
    match Netlist.node c id with
    | Netlist.Input -> ()
    | Netlist.Const b ->
      Cnf.Formula.add_clause_l f [ (if b then out else Lit.negate out) ]
    | Netlist.Gate (g, fs) ->
      let ins = List.map (fun x -> map.(x)) fs in
      add_gate_cnf f ~out ~ins g
  done;
  fun id -> map.(id)

let encode c =
  let f = Cnf.Formula.create () in
  let lit_of_node = encode_into f c in
  { formula = f; lit_of_node }

let assert_output f l v =
  Cnf.Formula.add_clause_l f [ (if v then l else Lit.negate l) ]
