module N = Circuit.Netlist
module S = Circuit.Sequential
module Gate = Circuit.Gate

type result =
  | Equivalent of int
  | Bounded_equivalent of int
  | Different of bool array list

(* the product machine; [match_states] adds state-correspondence to the
   property (requires equal state counts) *)
let product ?(match_states = false) s1 s2 =
  let m = N.create () in
  let pis =
    List.mapi (fun i _ -> N.add_input ~name:(Printf.sprintf "pi%d" i) m)
      s1.S.primary_inputs
  in
  let st1 =
    List.mapi (fun i _ -> N.add_input ~name:(Printf.sprintf "l%d" i) m)
      s1.S.state_inputs
  in
  let st2 =
    List.mapi (fun i _ -> N.add_input ~name:(Printf.sprintf "r%d" i) m)
      s2.S.state_inputs
  in
  let import seq sts =
    let table = Hashtbl.create 16 in
    List.iter2 (fun src dst -> Hashtbl.replace table src dst)
      seq.S.primary_inputs pis;
    List.iter2 (fun src dst -> Hashtbl.replace table src dst)
      seq.S.state_inputs sts;
    N.import seq.S.comb ~into:m ~map_node:(Hashtbl.find_opt table)
  in
  let map1 = import s1 st1 in
  let map2 = import s2 st2 in
  let mismatches =
    List.map2
      (fun a b -> N.add_gate m Gate.Xor [ map1.(a); map2.(b) ])
      (N.output_ids s1.S.comb) (N.output_ids s2.S.comb)
  in
  let state_mismatches =
    if match_states then
      List.map2 (fun a b -> N.add_gate m Gate.Xor [ a; b ]) st1 st2
    else []
  in
  let bad =
    match mismatches @ state_mismatches with
    | [ one ] -> N.add_gate ~name:"bad" m Gate.Buf [ one ]
    | many -> N.add_gate ~name:"bad" m Gate.Or many
  in
  N.set_output m bad;
  {
    S.comb = m;
    primary_inputs = pis;
    state_inputs = st1 @ st2;
    next_state =
      List.map (fun x -> map1.(x)) s1.S.next_state
      @ List.map (fun x -> map2.(x)) s2.S.next_state;
    init = s1.S.init @ s2.S.init;
  }

let check ?metrics ?trace ?(config = Sat.Types.default) ?(max_k = 4)
    ?(bound = 16) ?(jobs = 1) s1 s2 =
  S.validate s1;
  S.validate s2;
  if List.length s1.S.primary_inputs <> List.length s2.S.primary_inputs then
    invalid_arg "Seq_equiv.check: primary input counts differ";
  if List.length (N.outputs s1.S.comb) <> List.length (N.outputs s2.S.comb)
  then invalid_arg "Seq_equiv.check: output counts differ";
  let same_state_count =
    List.length s1.S.state_inputs = List.length s2.S.state_inputs
  in
  (* the induction chain (strengthened, then plain) and the bounded
     search, as one group: in order at [jobs = 1], where a settled
     induction makes the bounded search moot, else as a strategy race.
     Proofs and counterexamples cannot both exist, so the combination
     is order-independent. *)
  let ind = Atomic.make `Open and bmc_r = ref `Clean in
  let induction ctx =
    let metrics = Sat.Exec.metrics ctx in
    let strengthened =
      if not same_state_count then None
      else
        match
          Bmc.prove_inductive ?metrics ~config ~max_k
            (product ~match_states:true s1 s2)
        with
        | Bmc.Proved k -> Some (`Proved k)
        | Bmc.Refuted _ | Bmc.Bound_reached -> None
    in
    Atomic.set ind
      (match strengthened with
       | Some r -> r
       | None -> (
           match
             Bmc.prove_inductive ?metrics ~config ~max_k
               (product ~match_states:false s1 s2)
           with
           | Bmc.Proved k -> `Proved k
           | Bmc.Refuted frames -> `Refuted frames
           | Bmc.Bound_reached -> `Open))
  in
  let bounded ctx =
    if jobs >= 2 || Atomic.get ind = `Open then
      match
        (Bmc.check ?metrics:(Sat.Exec.metrics ctx) ?trace:(Sat.Exec.trace ctx)
           ~config ~max_bound:bound
           (product ~match_states:false s1 s2))
          .Bmc.result
      with
      | Bmc.Counterexample frames -> bmc_r := `Cex frames
      | Bmc.No_counterexample -> bmc_r := `Clean
  in
  let width = if jobs >= 2 then 2 else 1 in
  Sat.Exec.with_pool (width - 1) (fun exec ->
      Sat.Exec.run exec ?metrics ?trace ~width [ induction; bounded ]);
  match (Atomic.get ind, !bmc_r) with
  | `Proved k, _ -> Equivalent k
  | _, `Cex frames -> Different frames  (* BMC's counterexample is shortest *)
  | `Refuted frames, _ -> Different frames
  | `Open, `Clean -> Bounded_equivalent bound
