let word_width = 62
let mask = (1 lsl word_width) - 1

(* SWAR: bit counts per 2-, 4- and 8-bit field, then the byte counts
   summed into the top byte by one multiply; the 64-bit constants wrap
   to the 63-bit int, whose top byte (bits 56..62) holds the sum *)
let popcount w =
  let w = w - ((w lsr 1) land 0x5555_5555_5555_5555) in
  let m2 = 0x3333_3333_3333_3333 in
  let w = (w land m2) + ((w lsr 2) land m2) in
  let w = (w + (w lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (w * 0x0101_0101_0101_0101) lsr 56

let eval_generic ~zero ~ones ~op c ins =
  let input_ids = Netlist.inputs c in
  if List.length input_ids <> Array.length ins then
    invalid_arg "Simulate: input count mismatch";
  let values = Array.make (max 1 (Netlist.num_nodes c)) zero in
  List.iteri (fun i id -> values.(id) <- ins.(i)) input_ids;
  for id = 0 to Netlist.num_nodes c - 1 do
    match Netlist.node c id with
    | Netlist.Input -> ()
    | Netlist.Const b -> values.(id) <- (if b then ones else zero)
    | Netlist.Gate (g, fs) -> values.(id) <- op g (List.map (fun f -> values.(f)) fs)
  done;
  values

let bool_op g vs = Gate.eval g vs

let word_op g vs =
  let conj = List.fold_left ( land ) mask vs in
  let disj = List.fold_left ( lor ) 0 vs in
  let parity = List.fold_left ( lxor ) 0 vs in
  match g, vs with
  | Gate.And, _ -> conj
  | Gate.Or, _ -> disj
  | Gate.Nand, _ -> lnot conj land mask
  | Gate.Nor, _ -> lnot disj land mask
  | Gate.Xor, _ -> parity
  | Gate.Xnor, _ -> lnot parity land mask
  | Gate.Not, [ a ] -> lnot a land mask
  | Gate.Buf, [ a ] -> a
  | (Gate.Not | Gate.Buf), _ -> invalid_arg "Simulate: arity"

let parallel_gate = word_op
let eval_all c ins = eval_generic ~zero:false ~ones:true ~op:bool_op c ins

let select_outputs c values =
  Netlist.outputs c |> List.map (fun (_, id) -> values.(id)) |> Array.of_list

let eval_outputs c ins = select_outputs c (eval_all c ins)
let eval_node c ins id = (eval_all c ins).(id)
let parallel_all c ins = eval_generic ~zero:0 ~ones:mask ~op:word_op c ins
let parallel_outputs c ins = select_outputs c (parallel_all c ins)

let random_words rng n =
  Array.init n (fun _ ->
      (* two 31-bit draws per 62-bit word *)
      let lo = Sat.Rng.int rng (1 lsl 31) in
      let hi = Sat.Rng.int rng (1 lsl 31) in
      (hi lsl 31) lor lo land mask)

type ternary = F | T | X

let t_not = function F -> T | T -> F | X -> X

let t_and vs =
  if List.exists (fun v -> v = F) vs then F
  else if List.for_all (fun v -> v = T) vs then T
  else X

let t_or vs =
  if List.exists (fun v -> v = T) vs then T
  else if List.for_all (fun v -> v = F) vs then F
  else X

let t_xor vs =
  if List.exists (fun v -> v = X) vs then X
  else if List.fold_left (fun acc v -> acc <> (v = T)) false vs then T
  else F

let ternary_op g vs =
  match g with
  | Gate.And -> t_and vs
  | Gate.Nand -> t_not (t_and vs)
  | Gate.Or -> t_or vs
  | Gate.Nor -> t_not (t_or vs)
  | Gate.Xor -> t_xor vs
  | Gate.Xnor -> t_not (t_xor vs)
  | Gate.Not -> (match vs with [ a ] -> t_not a | _ -> invalid_arg "Simulate: arity")
  | Gate.Buf -> (match vs with [ a ] -> a | _ -> invalid_arg "Simulate: arity")

let eval3_all c ins = eval_generic ~zero:F ~ones:T ~op:ternary_op c ins

let eval3_outputs c ins = select_outputs c (eval3_all c ins)

let ternary_of_pattern c pattern =
  Netlist.inputs c
  |> List.map (fun id ->
      match List.assoc_opt id pattern with
      | Some true -> T
      | Some false -> F
      | None -> X)
  |> Array.of_list
