(* Simulation-derived branching observations over a netlist.

   Random 62-way bit-parallel simulation estimates each node's signal
   probability; together with structural fanout this is exactly what
   Sat.Guide.of_observations wants (see docs/TUNING.md "Seeding from
   observations").  The estimate is deliberately crude — a few hundred
   random patterns — because its only consumer is a branching
   heuristic: a wrong probability costs search time, never
   correctness. *)

type observation = { node : Netlist.node_id; prob : float; fanout : int }

let observe ?(rounds = 4) ?(seed = 0x5eed) c =
  let n = Netlist.num_nodes c in
  let nins = List.length (Netlist.inputs c) in
  let rng = Sat.Rng.create seed in
  let ones = Array.make n 0 in
  for _ = 1 to rounds do
    let words = Simulate.random_words rng nins in
    let vals = Simulate.parallel_all c words in
    for i = 0 to n - 1 do
      ones.(i) <- ones.(i) + Simulate.popcount vals.(i)
    done
  done;
  let total = float_of_int (max 1 (rounds * Simulate.word_width)) in
  Array.init n (fun i ->
      {
        node = i;
        prob = float_of_int ones.(i) /. total;
        fanout = List.length (Netlist.fanouts c i);
      })

let to_guide ~lit_of_node obs =
  Sat.Guide.of_observations
    (Array.fold_right
       (fun o acc ->
          match lit_of_node o.node with
          | None -> acc
          | Some l ->
            (* a negative encoding literal sees the complemented signal *)
            let prob = if Cnf.Lit.is_pos l then o.prob else 1.0 -. o.prob in
            { Sat.Guide.var = Cnf.Lit.var l; prob; fanout = o.fanout } :: acc)
       obs [])

let guidance ?rounds ?seed c ~lit_of_node =
  to_guide ~lit_of_node (observe ?rounds ?seed c)
