(* Metrics registry: bucket-boundary convention, merge semantics, and
   the schema-stable JSON snapshot (round trip + byte determinism). *)

module M = Sat.Metrics
module J = Sat.Json

let bucket_boundaries () =
  let bounds = [| 1.; 2.; 4. |] in
  (* inclusive upper bound: v == bound lands IN that bucket *)
  Alcotest.(check int) "below first" 0 (M.bucket_index bounds 0.5);
  Alcotest.(check int) "exactly first" 0 (M.bucket_index bounds 1.0);
  Alcotest.(check int) "just above first" 1 (M.bucket_index bounds 1.0000001);
  Alcotest.(check int) "exactly second" 1 (M.bucket_index bounds 2.0);
  Alcotest.(check int) "exactly last" 2 (M.bucket_index bounds 4.0);
  Alcotest.(check int) "overflow" 3 (M.bucket_index bounds 4.5);
  Alcotest.(check int) "far overflow" 3 (M.bucket_index bounds 1e9)

let histogram_counts () =
  let m = M.create () in
  let h = M.histogram m "h" ~bounds:[| 1.; 2.; 4. |] in
  List.iter (M.observe h) [ 0.5; 1.0; 2.0; 3.0; 4.0; 100.0 ];
  Alcotest.(check (array int)) "counts" [| 2; 1; 2; 1 |] (M.histogram_counts h);
  Alcotest.(check int) "total" 6 (M.histogram_total h);
  Alcotest.(check (float 1e-9)) "sum" 110.5 (M.histogram_sum h)

let kind_and_bounds_clashes () =
  let m = M.create () in
  let _ = M.counter m "x" in
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: \"x\" is a counter, not a gauge")
    (fun () -> ignore (M.gauge m "x"));
  let _ = M.histogram m "h" ~bounds:[| 1.; 2. |] in
  (* same bounds: same histogram; different bounds: refused *)
  let h2 = M.histogram m "h" ~bounds:[| 1.; 2. |] in
  M.observe h2 1.5;
  Alcotest.(check int) "shared" 1 (M.histogram_total h2);
  Alcotest.check_raises "bounds clash"
    (Invalid_argument "Metrics: \"h\" re-registered with different bounds")
    (fun () -> ignore (M.histogram m "h" ~bounds:[| 1.; 3. |]))

let merge_semantics () =
  let a = M.create () and b = M.create () in
  M.incr ~by:3 (M.counter a "c");
  M.incr ~by:4 (M.counter b "c");
  M.set_gauge (M.gauge a "g") 2.;
  M.set_gauge (M.gauge b "g") 5.;
  M.observe (M.histogram a "h" ~bounds:[| 1.; 2. |]) 0.5;
  M.observe (M.histogram b "h" ~bounds:[| 1.; 2. |]) 1.5;
  M.merge_into ~into:a b;
  Alcotest.(check int) "counters add" 7 (M.counter_value (M.counter a "c"));
  Alcotest.(check (float 0.)) "gauges max" 5. (M.gauge_value (M.gauge a "g"));
  Alcotest.(check (array int)) "histograms add" [| 1; 1; 0 |]
    (M.histogram_counts (M.histogram a "h" ~bounds:[| 1.; 2. |]))

let populate m =
  M.incr ~by:9 (M.counter m "solver/decisions");
  M.set_gauge (M.gauge m "solver/max_level") 12.;
  let h = M.histogram m "solver/lbd" ~bounds:M.lbd_bounds in
  List.iter (M.observe_int h) [ 1; 2; 2; 5; 40 ];
  M.time m "phase/x" (fun () -> ())

let json_roundtrip () =
  let m = M.create () in
  populate m;
  let j = M.to_json ~tool:"test" m in
  (match M.of_json j with
   | Error e -> Alcotest.fail e
   | Ok m' ->
     (* a second snapshot of the restored registry is byte-identical,
        modulo the timer's wall-time payload we can't control; compare
        the full documents *)
     Alcotest.(check string) "round trip"
       (J.to_string j)
       (J.to_string (M.to_json ~tool:"test" m')));
  (* version mismatch is refused *)
  let bumped =
    match j with
    | J.Obj fields ->
      J.Obj
        (List.map
           (function "version", _ -> ("version", J.Int 999) | kv -> kv)
           fields)
    | _ -> Alcotest.fail "snapshot not an object"
  in
  match M.of_json bumped with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_json must refuse a foreign schema version"

let json_determinism () =
  (* same values registered in different orders produce identical bytes *)
  let a = M.create () and b = M.create () in
  M.incr ~by:1 (M.counter a "z");
  M.incr ~by:2 (M.counter a "a");
  M.incr ~by:2 (M.counter b "a");
  M.incr ~by:1 (M.counter b "z");
  Alcotest.(check string) "sorted keys"
    (J.to_string (M.to_json a))
    (J.to_string (M.to_json b))

let stats_bridge () =
  let st = Sat.Types.mk_stats () in
  st.Sat.Types.decisions <- 5;
  st.Sat.Types.conflicts <- 2;
  st.Sat.Types.max_level <- 7;
  let m = M.create () in
  M.add_stats m st;
  M.add_stats m st;
  Alcotest.(check int) "adds accumulate" 10
    (M.counter_value (M.counter m "solver/decisions"));
  let m2 = M.create () in
  M.record_stats m2 st;
  M.record_stats m2 st;
  Alcotest.(check int) "record sets" 5
    (M.counter_value (M.counter m2 "solver/decisions"));
  Alcotest.(check (float 0.)) "max level gauge" 7.
    (M.gauge_value (M.gauge m2 "solver/max_level"))

let timers () =
  let m = M.create () in
  M.phase_begin m "p";
  M.phase_end m "p";
  M.phase_end m "p" (* unmatched end: no-op *);
  let t = M.timer m "p" in
  Alcotest.(check bool) "non-negative" true (M.timer_seconds t >= 0.);
  let x = M.time m "q" (fun () -> 41 + 1) in
  Alcotest.(check int) "value through" 42 x;
  M.add_time m "r" 0.25;
  M.add_time m "r" 0.5;
  Alcotest.(check (float 0.)) "added durations" 0.75
    (M.timer_seconds (M.timer m "r"))

let suite =
  [
    Th.case "bucket boundary convention" bucket_boundaries;
    Th.case "histogram counts" histogram_counts;
    Th.case "registration clashes" kind_and_bounds_clashes;
    Th.case "merge semantics" merge_semantics;
    Th.case "JSON round trip + version pin" json_roundtrip;
    Th.case "JSON byte determinism" json_determinism;
    Th.case "stats bridge add vs record" stats_bridge;
    Th.case "phase timers" timers;
  ]
