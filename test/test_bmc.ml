module B = Eda.Bmc
module S = Circuit.Sequential

let correct_counter_depth () =
  let c = S.counter ~bits:3 ~buggy_at:None in
  match (B.check ~max_bound:12 c).B.result with
  | B.Counterexample frames ->
    (* count reaches 7 after 7 enabled increments; bad observed in the
       8th frame *)
    Alcotest.(check int) "depth" 8 (List.length frames);
    let outs = S.simulate c ~inputs:frames in
    Alcotest.(check bool) "replay reaches bad" true
      (List.exists (fun o -> o.(0)) outs)
  | B.No_counterexample -> Alcotest.fail "counter must reach bad"

let buggy_counter_shallower () =
  let c = S.counter ~bits:3 ~buggy_at:(Some 2) in
  match (B.check ~max_bound:12 c).B.result with
  | B.Counterexample frames ->
    Alcotest.(check int) "shortcut depth" 4 (List.length frames);
    let outs = S.simulate c ~inputs:frames in
    Alcotest.(check bool) "replay" true (List.exists (fun o -> o.(0)) outs)
  | B.No_counterexample -> Alcotest.fail "buggy counter must fail earlier"

let bound_too_small () =
  let c = S.counter ~bits:4 ~buggy_at:None in
  let r = B.check ~max_bound:5 c in
  (match r.B.result with
   | B.No_counterexample -> ()
   | B.Counterexample _ -> Alcotest.fail "bad unreachable within 5 steps");
  Alcotest.(check int) "bound reached" 5 r.B.bound_reached

let counterexample_is_minimal () =
  (* BMC explores increasing bounds, so the cex has minimal length *)
  let c = S.counter ~bits:2 ~buggy_at:None in
  match (B.check ~max_bound:10 c).B.result with
  | B.Counterexample frames ->
    Alcotest.(check int) "minimal" 4 (List.length frames);
    (* shorter prefixes never reach bad *)
    let outs = S.simulate c ~inputs:frames in
    List.iteri
      (fun i o ->
         if i < List.length outs - 1 then
           Alcotest.(check bool) "not earlier" false o.(0))
      outs
  | B.No_counterexample -> Alcotest.fail "expected cex"

let enable_can_be_held_low () =
  (* the solver must choose to enable on every stepping frame (the final
     frame's input is a don't-care: [bad] reads the current state) *)
  let c = S.counter ~bits:2 ~buggy_at:None in
  match (B.check ~max_bound:6 c).B.result with
  | B.Counterexample frames ->
    let stepping = List.filteri (fun i _ -> i < List.length frames - 1) frames in
    Alcotest.(check bool) "every stepping frame enabled" true
      (List.for_all (fun f -> f.(0)) stepping)
  | B.No_counterexample -> Alcotest.fail "expected cex"

let per_bound_stats () =
  let c = S.counter ~bits:2 ~buggy_at:None in
  let r = B.check ~max_bound:6 c in
  Alcotest.(check int) "stats rows" r.B.bound_reached
    (List.length r.B.per_bound_conflicts)

let timeout_marks_report () =
  (* bad is unreachable within 5 steps of a 4-bit counter.  A zero
     timeout has passed by the first frame query, which answers
     "timeout" at entry: the run stops there, deterministically *)
  let c = S.counter ~bits:4 ~buggy_at:None in
  List.iter
    (fun incremental ->
       let r = B.check ~incremental ~timeout:0. ~max_bound:5 c in
       Alcotest.(check bool) "timed out" true r.B.timed_out;
       (match r.B.result with
        | B.No_counterexample -> ()
        | B.Counterexample _ -> Alcotest.fail "no counterexample exists");
       Alcotest.(check int) "stopped at the first bound" 1 r.B.bound_reached;
       Alcotest.(check (list int)) "one stats row per bound reached"
         (List.init r.B.bound_reached Fun.id)
         (List.map fst r.B.per_bound_stats);
       Alcotest.(check (list int)) "conflict rows match"
         (List.map fst r.B.per_bound_stats)
         (List.map fst r.B.per_bound_conflicts);
       Alcotest.(check int) "the timed-out query is counted" 1
         r.B.total_stats.Sat.Types.interrupts;
       (* without a timeout the same call runs to the bound, as before *)
       let full = B.check ~incremental ~max_bound:5 c in
       Alcotest.(check bool) "not timed out" false full.B.timed_out;
       Alcotest.(check int) "bound reached" 5 full.B.bound_reached;
       Alcotest.(check int) "stats rows" 5 (List.length full.B.per_bound_stats);
       Alcotest.(check int) "nothing stopped" 0
         full.B.total_stats.Sat.Types.interrupts;
       match full.B.result with
       | B.No_counterexample -> ()
       | B.Counterexample _ -> Alcotest.fail "no counterexample exists")
    [ true; false ]

let missing_bad_output () =
  let c = S.lfsr ~bits:3 ~taps:[ 1; 2 ] in
  Alcotest.check_raises "no bad output"
    (Invalid_argument "Bmc.check: no output named bad") (fun () ->
        ignore (B.check ~max_bound:2 c))

let custom_property_name () =
  let c = S.lfsr ~bits:3 ~taps:[ 1; 2 ] in
  (* tap0 starts at 1: 'property' tap0 fails at frame 0 *)
  match (B.check ~bad_output:"tap0" ~max_bound:3 c).B.result with
  | B.Counterexample frames -> Alcotest.(check int) "frame 0" 1 (List.length frames)
  | B.No_counterexample -> Alcotest.fail "tap0 is initially 1"

let induction_proves_ring_counter () =
  let ring = S.ring_counter ~bits:5 in
  (* bounded checking alone cannot conclude *)
  (match (B.check ~max_bound:12 ring).B.result with
   | B.No_counterexample -> ()
   | B.Counterexample _ -> Alcotest.fail "ring counter is safe");
  match B.prove_inductive ~max_k:3 ring with
  | B.Proved k -> Alcotest.(check bool) "small induction depth" true (k <= 2)
  | B.Refuted _ -> Alcotest.fail "safe design refuted"
  | B.Bound_reached -> Alcotest.fail "one-hot invariant is 1-inductive"

let induction_refutes_buggy () =
  let c = S.counter ~bits:3 ~buggy_at:None in
  (* bad IS reachable: induction must report the counterexample *)
  match B.prove_inductive ~max_k:10 c with
  | B.Refuted frames -> Alcotest.(check int) "depth" 8 (List.length frames)
  | B.Proved _ -> Alcotest.fail "reachable bad state proved safe?!"
  | B.Bound_reached -> Alcotest.fail "cex lies within the bound"

let induction_gives_up_honestly () =
  (* the plain counter's bad state is reachable only at depth 8; with
     max_k below that, neither a proof (not inductive) nor a cex fits *)
  let c = S.counter ~bits:3 ~buggy_at:None in
  match B.prove_inductive ~max_k:3 c with
  | B.Bound_reached -> ()
  | B.Proved _ -> Alcotest.fail "non-inductive property proved"
  | B.Refuted frames ->
    Alcotest.failf "cex of %d frames within k=3?" (List.length frames)

let explain_bound_names_needed_frames () =
  let c = S.counter ~bits:3 ~buggy_at:None in
  (* bad first fires in frame 7; at bound 5 it is still unreachable *)
  (match B.explain_bound ~bound:5 c with
   | Some frames ->
     Alcotest.(check bool) "frames within range" true
       (List.for_all (fun t -> t >= 0 && t < 5) frames);
     (* the last frame defines the queried bad literal, so its
        transition logic must be part of any refutation *)
     Alcotest.(check bool) "last frame needed" true (List.mem 4 frames)
   | None -> Alcotest.fail "bad is unreachable at bound 5");
  (* at bound 8 a counterexample exists, so there is nothing to explain *)
  match B.explain_bound ~bound:8 c with
  | None -> ()
  | Some _ -> Alcotest.fail "counterexample expected at bound 8"

(* index of [bad] among the comb outputs, for replay *)
let bad_index seq =
  let rec find i = function
    | [] -> Alcotest.fail "no bad output"
    | (n, _) :: rest -> if n = "bad" then i else find (i + 1) rest
  in
  find 0 (Circuit.Netlist.outputs seq.S.comb)

(* a counterexample must replay: bad rises in its last frame and in no
   earlier one (the bounds are explored shortest first) *)
let replays seq frames =
  let b = bad_index seq in
  let outs = S.simulate seq ~inputs:frames in
  List.length outs > 0
  && List.for_all (fun o -> not o.(b))
       (List.filteri (fun i _ -> i < List.length outs - 1) outs)
  && (List.nth outs (List.length outs - 1)).(b)

let cex_length ?incremental ~max_bound seq =
  match (B.check ?incremental ~max_bound seq).B.result with
  | B.Counterexample frames ->
    if not (replays seq frames) then Alcotest.fail "counterexample does not replay";
    Some (List.length frames)
  | B.No_counterexample -> None

let counter_lengths () =
  List.iter
    (fun incremental ->
       for bits = 2 to 5 do
         let n = 1 lsl bits in
         Alcotest.(check (option int))
           (Printf.sprintf "%d bits" bits) (Some n)
           (cex_length ~incremental ~max_bound:(n + 2)
              (S.counter ~bits ~buggy_at:None));
         List.iter
           (fun k ->
              Alcotest.(check (option int))
                (Printf.sprintf "%d bits, bug at %d" bits k) (Some (k + 2))
                (cex_length ~incremental ~max_bound:(n + 2)
                   (S.counter ~bits ~buggy_at:(Some k))))
           [ 0; (n / 2) - 1; n - 2 ]
       done)
    [ true; false ]

(* does some input sequence raise bad within [depth] cycles?  The
   counters have one primary input, so all 2^depth sequences are
   enumerated *)
let reachable_by_simulation seq ~depth =
  let b = bad_index seq in
  let rec go state d =
    d < depth
    && List.exists
         (fun enable ->
            let next, outs = S.step seq ~state ~inputs:[| enable |] in
            outs.(b) || go next (d + 1))
         [ false; true ]
  in
  go seq.S.init 0

let mutants_agree_with_simulation () =
  let checked = ref 0 and reachable = ref 0 in
  List.iter
    (fun bits ->
       let seq = S.counter ~bits ~buggy_at:None in
       for seed = 1 to 10 do
         let comb, _ = Circuit.Transform.inject_bug ~seed seq.S.comb in
         let mutant = { seq with S.comb } in
         let sim = reachable_by_simulation mutant ~depth:6 in
         List.iter
           (fun incremental ->
              let bmc = cex_length ~incremental ~max_bound:6 mutant <> None in
              if bmc <> sim then
                Alcotest.failf "%d bits, seed %d: bmc %b, simulation %b" bits
                  seed bmc sim)
           [ true; false ];
         incr checked;
         if sim then incr reachable
       done)
    [ 2; 3 ];
  Alcotest.(check int) "20 mutants" 20 !checked;
  Alcotest.(check bool) "both verdicts occur" true
    (!reachable > 0 && !reachable < !checked)

let explain_keeps_last_frame () =
  for bits = 2 to 4 do
    let c = S.counter ~bits ~buggy_at:None in
    let n = 1 lsl bits in
    for bound = 1 to n - 1 do
      match B.explain_bound ~bound c with
      | Some frames ->
        Alcotest.(check bool) "frames within range" true
          (List.for_all (fun t -> t >= 0 && t < bound) frames);
        Alcotest.(check bool)
          (Printf.sprintf "%d bits, bound %d: last frame kept" bits bound)
          true (List.mem (bound - 1) frames)
      | None -> Alcotest.failf "%d bits: bad unreachable at bound %d" bits bound
    done;
    match B.explain_bound ~bound:n c with
    | None -> ()
    | Some _ -> Alcotest.failf "%d bits: counterexample expected" bits
  done

let suite =
  [
    Th.case "induction proves ring counter" induction_proves_ring_counter;
    Th.case "induction refutes buggy" induction_refutes_buggy;
    Th.case "induction bound reached" induction_gives_up_honestly;
    Th.case "correct counter depth" correct_counter_depth;
    Th.case "buggy counter shallower" buggy_counter_shallower;
    Th.case "bound too small" bound_too_small;
    Th.case "minimal counterexample" counterexample_is_minimal;
    Th.case "enable chosen" enable_can_be_held_low;
    Th.case "per-bound stats" per_bound_stats;
    Th.case "timeout marks the report" timeout_marks_report;
    Th.case "missing bad output" missing_bad_output;
    Th.case "custom property" custom_property_name;
    Th.case "explain bound" explain_bound_names_needed_frames;
    Th.case "counter lengths" counter_lengths;
    Th.case "mutants agree with simulation" mutants_agree_with_simulation;
    Th.case "explain keeps the last frame" explain_keeps_last_frame;
  ]
