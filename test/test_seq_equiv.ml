module Q = Eda.Seq_equiv
module S = Circuit.Sequential
module B = Circuit.Bench_format

let identical_machines_proved jobs =
  let c = S.counter ~bits:3 ~buggy_at:None in
  let c' = B.parse_sequential_string (B.sequential_to_string c) in
  match Q.check ~jobs c c' with
  | Q.Equivalent k -> Alcotest.(check bool) "small k" true (k <= 2)
  | Q.Bounded_equivalent _ -> Alcotest.fail "register correspondence should close"
  | Q.Different _ -> Alcotest.fail "identical machines"

let ring_counters_proved jobs =
  let r = S.ring_counter ~bits:5 in
  match Q.check ~jobs r (S.ring_counter ~bits:5) with
  | Q.Equivalent _ -> ()
  | _ -> Alcotest.fail "identical rings"

let buggy_machine_refuted jobs =
  let good = S.counter ~bits:3 ~buggy_at:None in
  let bad = S.counter ~bits:3 ~buggy_at:(Some 2) in
  match Q.check ~jobs good bad with
  | Q.Different frames ->
    (* replaying the trace must expose an output difference *)
    let o1 = S.simulate good ~inputs:frames in
    let o2 = S.simulate bad ~inputs:frames in
    Alcotest.(check bool) "trace distinguishes" true (o1 <> o2)
  | Q.Equivalent _ -> Alcotest.fail "buggy machine proved equivalent?!"
  | Q.Bounded_equivalent _ -> Alcotest.fail "difference is shallow (depth 4)"

let interface_mismatch jobs =
  let a = S.counter ~bits:2 ~buggy_at:None in
  let b = S.ring_counter ~bits:3 in
  Alcotest.check_raises "pi mismatch"
    (Invalid_argument "Seq_equiv.check: primary input counts differ")
    (fun () -> ignore (Q.check ~jobs a b))

let lfsr_self_equivalence jobs =
  let l = S.lfsr ~bits:4 ~taps:[ 2; 3 ] in
  match Q.check ~jobs l (S.lfsr ~bits:4 ~taps:[ 2; 3 ]) with
  | Q.Equivalent _ -> ()
  | _ -> Alcotest.fail "identical lfsrs"

(* every case runs sequentially and as the two-way strategy race *)
let at_jobs case () = List.iter case [ 1; 2 ]

let suite =
  [
    Th.case "identical machines" (at_jobs identical_machines_proved);
    Th.case "ring counters" (at_jobs ring_counters_proved);
    Th.case "buggy machine refuted" (at_jobs buggy_machine_refuted);
    Th.case "interface mismatch" (at_jobs interface_mismatch);
    Th.case "lfsr" (at_jobs lfsr_self_equivalence);
  ]
