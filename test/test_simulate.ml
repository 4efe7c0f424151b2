module S = Circuit.Simulate

let adder_arithmetic () =
  let bits = 4 in
  let c = Circuit.Generators.ripple_adder ~bits in
  for a = 0 to 15 do
    for b = 0 to 15 do
      for cin = 0 to 1 do
        let ins =
          Array.concat [ Th.bits_of a bits; Th.bits_of b bits; [| cin = 1 |] ]
        in
        let outs = S.eval_outputs c ins in
        Alcotest.(check int)
          (Printf.sprintf "%d+%d+%d" a b cin)
          (a + b + cin) (Th.int_of_bits outs)
      done
    done
  done

let carry_skip_arithmetic () =
  let c = Circuit.Generators.carry_skip_adder ~bits:6 ~block:3 in
  let rng = Sat.Rng.create 3 in
  for _ = 1 to 200 do
    let a = Sat.Rng.int rng 64 and b = Sat.Rng.int rng 64 in
    let ins = Array.concat [ Th.bits_of a 6; Th.bits_of b 6; [| false |] ] in
    Alcotest.(check int) "carry-skip sum" (a + b)
      (Th.int_of_bits (S.eval_outputs c ins))
  done

let multiplier_arithmetic () =
  let c = Circuit.Generators.multiplier ~bits:4 in
  let rng = Sat.Rng.create 4 in
  for _ = 1 to 200 do
    let a = Sat.Rng.int rng 16 and b = Sat.Rng.int rng 16 in
    let ins = Array.append (Th.bits_of a 4) (Th.bits_of b 4) in
    Alcotest.(check int) "product" (a * b)
      (Th.int_of_bits (S.eval_outputs c ins))
  done

let comparator_semantics () =
  let c = Circuit.Generators.comparator ~bits:4 in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let ins = Array.append (Th.bits_of a 4) (Th.bits_of b 4) in
      Alcotest.(check bool) "lt" (a < b) (S.eval_outputs c ins).(0)
    done
  done

let parity_semantics () =
  let c = Circuit.Generators.parity ~bits:7 in
  for mask = 0 to 127 do
    let ins = Th.bits_of mask 7 in
    let expected = Array.fold_left (fun acc b -> acc <> b) false ins in
    Alcotest.(check bool) "parity" expected (S.eval_outputs c ins).(0)
  done

let mux_semantics () =
  let c = Circuit.Generators.mux_tree ~select_bits:3 in
  let rng = Sat.Rng.create 5 in
  for _ = 1 to 100 do
    let data = Array.init 8 (fun _ -> Sat.Rng.bool rng) in
    let sel = Sat.Rng.int rng 8 in
    let ins = Array.append data (Th.bits_of sel 3) in
    Alcotest.(check bool) "mux selects" data.(sel) (S.eval_outputs c ins).(0)
  done

let alu_semantics () =
  let bits = 4 in
  let c = Circuit.Generators.alu ~bits in
  let rng = Sat.Rng.create 6 in
  for _ = 1 to 200 do
    let a = Sat.Rng.int rng 16 and b = Sat.Rng.int rng 16 in
    let op = Sat.Rng.int rng 4 in
    let ins =
      Array.concat
        [ Th.bits_of a bits; Th.bits_of b bits;
          [| op land 1 <> 0; op land 2 <> 0 |] ]
    in
    let outs = S.eval_outputs c ins in
    let y = Th.int_of_bits (Array.sub outs 0 bits) in
    let expected =
      match op with
      | 0 -> a land b
      | 1 -> a lor b
      | 2 -> a lxor b
      | 3 -> (a + b) land 15
      | _ -> assert false
    in
    Alcotest.(check int) (Printf.sprintf "alu op %d" op) expected y;
    if op = 3 then
      Alcotest.(check bool) "alu carry" (a + b > 15) outs.(bits)
  done

let prop_parallel_equals_scalar =
  QCheck.Test.make ~name:"bit-parallel simulation equals scalar" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
       let c =
         Circuit.Generators.random_circuit ~inputs:6 ~gates:25 ~seed:(seed + 1)
       in
       let rng = Sat.Rng.create (seed + 2) in
       let words = S.random_words rng 6 in
       let packed = S.parallel_all c words in
       let ok = ref true in
       for bit = 0 to 9 do
         let ins = Array.map (fun w -> w land (1 lsl bit) <> 0) words in
         let scalar = S.eval_all c ins in
         for id = 0 to Circuit.Netlist.num_nodes c - 1 do
           if (packed.(id) land (1 lsl bit) <> 0) <> scalar.(id) then ok := false
         done
       done;
       !ok)

let input_mismatch () =
  let c = Circuit.Generators.majority3 () in
  Alcotest.check_raises "count" (Invalid_argument "Simulate: input count mismatch")
    (fun () -> ignore (S.eval_all c [| true |]))

let popcount_matches_naive () =
  let naive w =
    let n = ref 0 in
    for b = 0 to Sys.int_size - 1 do
      if w land (1 lsl b) <> 0 then incr n
    done;
    !n
  in
  let check w =
    Alcotest.(check int) (Printf.sprintf "popcount %#x" w) (naive w)
      (S.popcount w)
  in
  check 0;
  check ((1 lsl S.word_width) - 1);
  for b = 0 to Sys.int_size - 1 do
    check (1 lsl b)
  done;
  let rng = Sat.Rng.create 2024 in
  Array.iter check (S.random_words rng 1000)

let suite =
  [
    Th.case "ripple adder" adder_arithmetic;
    Th.case "carry-skip adder" carry_skip_arithmetic;
    Th.case "multiplier" multiplier_arithmetic;
    Th.case "comparator" comparator_semantics;
    Th.case "parity" parity_semantics;
    Th.case "mux tree" mux_semantics;
    Th.case "alu" alu_semantics;
    Th.case "input mismatch" input_mismatch;
    Th.qcheck prop_parallel_equals_scalar;
    Th.case "popcount" popcount_matches_naive;
  ]
