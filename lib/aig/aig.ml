(* Nodes: node 0 is the constant (TRUE when referenced uncomplemented);
   inputs and ANDs follow.  An edge (lit) packs a node index and a
   complement bit, like CNF literals.  Creation order is a topological
   order: an AND's children always have smaller node indices. *)

type lit = int

type node =
  | Const
  | Input of int
  | And of lit * lit

type view = node = Const | Input of int | And of lit * lit

type man = {
  nodes : node Sat.Vec.t;
  strash : (lit * lit, int) Hashtbl.t;
  input_ids : int Sat.Vec.t;  (* input ordinal -> node index *)
  mutable inputs : int;
  mutable ands : int;
}

let create () =
  let m =
    { nodes = Sat.Vec.create ~dummy:Const (); strash = Hashtbl.create 256;
      input_ids = Sat.Vec.create ~dummy:(-1) (); inputs = 0; ands = 0 }
  in
  Sat.Vec.push m.nodes Const;
  m

let const_true : lit = 0
let const_false : lit = 1
let node_of (l : lit) = l lsr 1
let of_node (id : int) : lit = id * 2
let neg (l : lit) : lit = l lxor 1
let is_complemented l = l land 1 = 1

let add_input m =
  let id = Sat.Vec.size m.nodes in
  Sat.Vec.push m.nodes (Input m.inputs);
  Sat.Vec.push m.input_ids id;
  m.inputs <- m.inputs + 1;
  (id * 2 : lit)

let num_inputs m = m.inputs

let input m i =
  if i < 0 || i >= m.inputs then raise Not_found;
  (Sat.Vec.get m.input_ids i * 2 : lit)

let num_ands m = m.ands

let node_count m = Sat.Vec.size m.nodes

let view m id = Sat.Vec.get m.nodes id

(* The underlying AND node of an edge, if any. *)
let node_children m l =
  match Sat.Vec.get m.nodes (node_of l) with
  | And (x, y) -> Some (x, y)
  | Const | Input _ -> None

let rec and_ m a b =
  (* level-one identities *)
  if a = const_false || b = const_false then const_false
  else if a = const_true then b
  else if b = const_true then a
  else if a = b then a
  else if a = neg b then const_false
  else
    match two_level m a b with
    | Some r -> r
    | None ->
      let x, y = if a <= b then (a, b) else (b, a) in
      (match Hashtbl.find_opt m.strash (x, y) with
       | Some id -> (id * 2 : lit)
       | None ->
         let id = Sat.Vec.size m.nodes in
         Sat.Vec.push m.nodes (And (x, y));
         Hashtbl.add m.strash (x, y) id;
         m.ands <- m.ands + 1;
         (id * 2 : lit))

(* Two-level rewriting (the bounded AIG cleanup rules): each rule
   inspects at most the children of the two operands, so it is O(1),
   and every right-hand side is an existing edge, a constant, or a
   recursive [and_] over strictly older nodes — terminating and never
   growing the graph. *)
and two_level m a b =
  match one_sided m a b with
  | Some _ as r -> r
  | None ->
    (match one_sided m b a with
     | Some _ as r -> r
     | None -> both_sided m a b)

(* Rules keyed on [a]'s underlying AND node. *)
and one_sided m a b =
  match node_children m a with
  | None -> None
  | Some (x, y) ->
    if not (is_complemented a) then
      if b = x || b = y then Some a (* absorption: (x&y) & x = x&y *)
      else if b = neg x || b = neg y then
        Some const_false (* contradiction: (x&y) & ~x = 0 *)
      else None
    else if b = neg x || b = neg y then
      Some b (* ~x -> ~(x&y), so ~(x&y) & ~x = ~x *)
    else if b = x then Some (and_ m x (neg y)) (* substitution *)
    else if b = y then Some (and_ m y (neg x))
    else None

(* Rules needing both operands' AND nodes. *)
and both_sided m a b =
  match node_children m a, node_children m b with
  | Some (x, y), Some (w, z) ->
    let pa = not (is_complemented a) and pb = not (is_complemented b) in
    if pa && pb then
      if x = neg w || x = neg z || y = neg w || y = neg z then
        Some const_false (* children contradict across the two ANDs *)
      else None
    else if (not pa) && not pb then
      (* resolution: ~(s&t) & ~(s&~t) = ~s *)
      if (x = w && y = neg z) || (x = z && y = neg w) then Some (neg x)
      else if (y = w && x = neg z) || (y = z && x = neg w) then Some (neg y)
      else None
    else begin
      (* one plain, one complemented: s&t forces a child of the
         complemented AND false, so the complemented edge is true *)
      let (s, t), (u, v), plain =
        if pa then ((x, y), (w, z), a) else ((w, z), (x, y), b)
      in
      if u = neg s || u = neg t || v = neg s || v = neg t then Some plain
      else None
    end
  | _ -> None

let or_ m a b = neg (and_ m (neg a) (neg b))

let xor m a b =
  (* a xor b = (a | b) & ~(a & b) *)
  and_ m (or_ m a b) (neg (and_ m a b))

let mux m s t e = or_ m (and_ m s t) (and_ m (neg s) e)

let eval m inputs l =
  let memo = Array.make (Sat.Vec.size m.nodes) (-1) in
  let rec node_val id =
    if memo.(id) >= 0 then memo.(id) = 1
    else begin
      let v =
        match Sat.Vec.get m.nodes id with
        | Const -> true
        | Input k -> inputs.(k)
        | And (a, b) -> edge_val a && edge_val b
      in
      memo.(id) <- (if v then 1 else 0);
      v
    end
  and edge_val l =
    let v = node_val (node_of l) in
    if is_complemented l then not v else v
  in
  edge_val l

let word_mask = (1 lsl Circuit.Simulate.word_width) - 1

let sim_words m inputs =
  if Array.length inputs < m.inputs then
    invalid_arg "Aig.sim_words: input word count mismatch";
  let n = Sat.Vec.size m.nodes in
  let out = Array.make n 0 in
  let edge l =
    let v = out.(node_of l) in
    if is_complemented l then lnot v land word_mask else v
  in
  for id = 0 to n - 1 do
    out.(id) <-
      (match Sat.Vec.get m.nodes id with
       | Const -> word_mask
       | Input k -> inputs.(k) land word_mask
       | And (a, b) -> edge a land edge b)
  done;
  out

let build_from m circuit input_edges =
  let values = Array.make (max 1 (Circuit.Netlist.num_nodes circuit)) const_false in
  List.iteri
    (fun i id -> values.(id) <- input_edges.(i))
    (Circuit.Netlist.inputs circuit);
  let conj = function
    | [] -> const_true
    | e :: rest -> List.fold_left (and_ m) e rest
  in
  for id = 0 to Circuit.Netlist.num_nodes circuit - 1 do
    match Circuit.Netlist.node circuit id with
    | Circuit.Netlist.Input -> ()
    | Circuit.Netlist.Const b ->
      values.(id) <- (if b then const_true else const_false)
    | Circuit.Netlist.Gate (g, fs) ->
      let ins = List.map (fun f -> values.(f)) fs in
      values.(id) <-
        (match g with
         | Circuit.Gate.And -> conj ins
         | Circuit.Gate.Nand -> neg (conj ins)
         | Circuit.Gate.Or -> neg (conj (List.map neg ins))
         | Circuit.Gate.Nor -> conj (List.map neg ins)
         | Circuit.Gate.Xor ->
           (match ins with
            | e :: rest -> List.fold_left (xor m) e rest
            | [] -> const_false)
         | Circuit.Gate.Xnor ->
           (match ins with
            | e :: rest -> neg (List.fold_left (xor m) e rest)
            | [] -> const_true)
         | Circuit.Gate.Not -> (match ins with [ e ] -> neg e | _ -> assert false)
         | Circuit.Gate.Buf -> (match ins with [ e ] -> e | _ -> assert false))
  done;
  values

let of_netlist circuit =
  let m = create () in
  let input_edges =
    Array.of_list (List.map (fun _ -> add_input m) (Circuit.Netlist.inputs circuit))
  in
  let values = build_from m circuit input_edges in
  (m, List.map (fun (n, o) -> (n, values.(o))) (Circuit.Netlist.outputs circuit))

let merge_netlists c1 c2 =
  if List.length (Circuit.Netlist.inputs c1)
     <> List.length (Circuit.Netlist.inputs c2)
     || List.length (Circuit.Netlist.outputs c1)
        <> List.length (Circuit.Netlist.outputs c2)
  then invalid_arg "Aig.merge_netlists: interface mismatch";
  let m = create () in
  let input_edges =
    Array.of_list (List.map (fun _ -> add_input m) (Circuit.Netlist.inputs c1))
  in
  let v1 = build_from m c1 input_edges in
  let v2 = build_from m c2 input_edges in
  let pairs =
    List.map2
      (fun a b -> (v1.(a), v2.(b)))
      (Circuit.Netlist.output_ids c1) (Circuit.Netlist.output_ids c2)
  in
  (m, pairs)

let cleanup m ~outputs =
  let fresh = create () in
  let input_edges = Array.init m.inputs (fun _ -> add_input fresh) in
  let memo = Array.make (Sat.Vec.size m.nodes) (-1) in
  let rec edge l =
    let e = node (node_of l) in
    if is_complemented l then neg e else e
  and node id =
    if memo.(id) >= 0 then memo.(id)
    else begin
      let e =
        match Sat.Vec.get m.nodes id with
        | Const -> const_true
        | Input k -> input_edges.(k)
        | And (a, b) -> and_ fresh (edge a) (edge b)
      in
      memo.(id) <- e;
      e
    end
  in
  (fresh, List.map edge outputs)

let to_netlist m ~outputs =
  let c = Circuit.Netlist.create () in
  let node_map = Array.make (Sat.Vec.size m.nodes) (-1) in
  let not_memo = Hashtbl.create 32 in
  let rec node_id id =
    if node_map.(id) >= 0 then node_map.(id)
    else begin
      let nid =
        match Sat.Vec.get m.nodes id with
        | Const ->
          Circuit.Netlist.add_const c true
        | Input _ -> Circuit.Netlist.add_input c
        | And (a, b) ->
          let fa = edge a and fb = edge b in
          Circuit.Netlist.add_gate c Circuit.Gate.And [ fa; fb ]
      in
      node_map.(id) <- nid;
      nid
    end
  and edge l =
    let nid = node_id (node_of l) in
    if is_complemented l then (
      match Hashtbl.find_opt not_memo nid with
      | Some inv -> inv
      | None ->
        let inv = Circuit.Netlist.add_gate c Circuit.Gate.Not [ nid ] in
        Hashtbl.add not_memo nid inv;
        inv)
    else nid
  in
  (* inputs must exist (in order) even if unused by the outputs *)
  for id = 0 to Sat.Vec.size m.nodes - 1 do
    match Sat.Vec.get m.nodes id with
    | Input _ -> ignore (node_id id)
    | Const | And _ -> ()
  done;
  List.iter (fun (name, l) -> Circuit.Netlist.set_output ~name c (edge l)) outputs;
  c

(* Input k is variable k; the constant and the AND nodes of the cone
   get fresh variables in depth-first post-order, roots left to right,
   and the constant's unit clause comes last. *)
let to_cnf m ~roots =
  let f = Cnf.Formula.create ~nvars:m.inputs () in
  let vars = Array.make (Sat.Vec.size m.nodes) (-1) in
  for k = 0 to m.inputs - 1 do
    vars.(Sat.Vec.get m.input_ids k) <- k
  done;
  let lit_of (l : lit) =
    let v = vars.(node_of l) in
    if v < 0 then invalid_arg "Aig.to_cnf: edge outside the roots' cone";
    if is_complemented l then Cnf.Lit.neg_of_var v else Cnf.Lit.pos v
  in
  let rec visit id =
    if vars.(id) < 0 then
      match Sat.Vec.get m.nodes id with
      | Input _ -> ()
      | Const -> vars.(id) <- Cnf.Formula.fresh_var f
      | And (a, b) ->
        visit (node_of a);
        visit (node_of b);
        let v = Cnf.Formula.fresh_var f in
        vars.(id) <- v;
        let out = Cnf.Lit.pos v and la = lit_of a and lb = lit_of b in
        Cnf.Formula.add_clause_l f [ Cnf.Lit.negate out; la ];
        Cnf.Formula.add_clause_l f [ Cnf.Lit.negate out; lb ];
        Cnf.Formula.add_clause_l f
          [ out; Cnf.Lit.negate la; Cnf.Lit.negate lb ]
  in
  List.iter (fun r -> visit (node_of r)) roots;
  if vars.(0) >= 0 then Cnf.Formula.add_clause_l f [ lit_of const_true ];
  (f, lit_of)

module Session_cnf = struct
  type nonrec t = {
    man : man;
    sess : Sat.Session.t;
    mutable vars : int array;            (* node -> session var, -1 = none *)
    mutable emitted : int;
  }

  let create ?config man =
    {
      man;
      sess = Sat.Session.create ?config ();
      vars = Array.make 64 (-1);
      emitted = 0;
    }

  let session t = t.sess

  (* the manager may have grown since the last call *)
  let sync t =
    let n = Sat.Vec.size t.man.nodes in
    if Array.length t.vars < n then begin
      let cap = max n (2 * Array.length t.vars) in
      let vars = Array.make cap (-1) in
      Array.blit t.vars 0 vars 0 (Array.length t.vars);
      t.vars <- vars
    end

  let lit_of_emitted t l =
    let base = Cnf.Lit.pos t.vars.(node_of l) in
    if is_complemented l then Cnf.Lit.negate base else base

  let rec ensure t id =
    if t.vars.(id) < 0 then
      match Sat.Vec.get t.man.nodes id with
      | Const ->
        let v = Sat.Session.new_var t.sess in
        t.vars.(id) <- v;
        Sat.Session.add_clause t.sess [ Cnf.Lit.pos v ]
      | Input _ -> t.vars.(id) <- Sat.Session.new_var t.sess
      | And (a, b) ->
        ensure t (node_of a);
        ensure t (node_of b);
        let v = Sat.Session.new_var t.sess in
        t.vars.(id) <- v;
        t.emitted <- t.emitted + 1;
        let out = Cnf.Lit.pos v in
        let la = lit_of_emitted t a and lb = lit_of_emitted t b in
        Sat.Session.add_clause t.sess [ Cnf.Lit.negate out; la ];
        Sat.Session.add_clause t.sess [ Cnf.Lit.negate out; lb ];
        Sat.Session.add_clause t.sess
          [ out; Cnf.Lit.negate la; Cnf.Lit.negate lb ]

  (* session variables are allocated contiguously, so the ones [ensure]
     just made are exactly [n0, n1); seeding them at the activity
     ceiling is the sweep's one branching rule (docs/TUNING.md "Sweep
     seeding") *)
  let lit_of t l =
    sync t;
    let n0 = Sat.Session.nvars t.sess in
    ensure t (node_of l);
    let n1 = Sat.Session.nvars t.sess in
    if n1 > n0 then
      Sat.Session.apply_guidance t.sess
        { Sat.Types.seed_activity = List.init (n1 - n0) (fun i -> (n0 + i, 1.));
          seed_phase = [] };
    lit_of_emitted t l

  let value t model l =
    let id = node_of l in
    let v = if id < Array.length t.vars then t.vars.(id) else -1 in
    let b = v >= 0 && v < Array.length model && model.(v) in
    if is_complemented l then not b else b

  let emitted_nodes t = t.emitted
end
