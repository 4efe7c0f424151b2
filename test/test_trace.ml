(* Structured event tracing: sink mechanics, solver event streams, and
   the merged multi-worker ordering guarantee. *)

module Tr = Sat.Trace
module T = Sat.Types

let php = Test_session.php

let sink_mechanics () =
  let s = Tr.make_sink ~worker:3 ~capacity:4 () in
  for i = 0 to 5 do
    Tr.emit s (Tr.Restart { number = i })
  done;
  Alcotest.(check int) "capacity bounds storage" 4 (Tr.length s);
  Alcotest.(check int) "overflow counted" 2 (Tr.dropped s);
  Alcotest.(check int) "worker tag" 3 (Tr.worker s);
  let rs = Tr.records s in
  Array.iteri
    (fun i (r : Tr.record) ->
       Alcotest.(check int) "seq dense" i r.Tr.seq;
       Alcotest.(check int) "worker stamped" 3 r.Tr.worker)
    rs;
  (* timestamps never go backwards within a sink *)
  for i = 1 to Array.length rs - 1 do
    Alcotest.(check bool) "time monotone" true
      (rs.(i).Tr.time_s >= rs.(i - 1).Tr.time_s)
  done

let cdcl_event_stream () =
  let s = Sat.Cdcl.create (php 4 3) in
  let sink = Tr.make_sink () in
  Sat.Cdcl.set_tracer s (Some sink);
  (match Sat.Cdcl.solve s with
   | T.Unsat -> ()
   | _ -> Alcotest.fail "php 4/3 must be UNSAT");
  let count p = Array.fold_left (fun n r -> if p r.Tr.event then n + 1 else n) 0 (Tr.records sink) in
  Alcotest.(check int) "one solve-begin" 1
    (count (function Tr.Solve_begin _ -> true | _ -> false));
  (match
     Array.find_opt
       (fun r -> match r.Tr.event with Tr.Solve_end _ -> true | _ -> false)
       (Tr.records sink)
   with
   | Some { Tr.event = Tr.Solve_end { outcome; _ }; _ } ->
     Alcotest.(check string) "outcome label" "unsat" outcome
   | _ -> Alcotest.fail "missing solve-end");
  Alcotest.(check bool) "saw decisions" true
    (count (function Tr.Decision _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "saw conflicts" true
    (count (function Tr.Conflict _ -> true | _ -> false) > 0);
  (* every conflict below the last learns a clause; learn events carry
     positive sizes and LBDs *)
  Array.iter
    (fun r ->
       match r.Tr.event with
       | Tr.Learn { lbd; size } ->
         Alcotest.(check bool) "lbd positive" true (lbd >= 1);
         Alcotest.(check bool) "size positive" true (size >= 1)
       | _ -> ())
    (Tr.records sink)

let session_spans () =
  let sess = Sat.Session.of_formula (Th.formula_of [ [ 1; 2 ]; [ -1; 2 ] ]) in
  let sink = Tr.make_sink () in
  Sat.Session.set_tracer sess (Some sink);
  ignore (Sat.Session.solve sess);
  ignore (Sat.Session.solve sess);
  let queries =
    Array.to_list (Tr.records sink)
    |> List.filter_map (fun r ->
        match r.Tr.event with Tr.Solve_begin { query } -> Some query | _ -> None)
  in
  Alcotest.(check (list int)) "query numbering" [ 1; 2 ] queries

let merged_ordering () =
  (* interleave two sinks by hand; merged must be time-sorted and keep
     each worker's emission order *)
  let a = Tr.make_sink ~worker:0 () and b = Tr.make_sink ~worker:1 () in
  Tr.emit a (Tr.Restart { number = 0 });
  Tr.emit b (Tr.Restart { number = 100 });
  Tr.emit a (Tr.Restart { number = 1 });
  Tr.emit b (Tr.Restart { number = 101 });
  let merged = Tr.merged [ a; b ] in
  Alcotest.(check int) "all records" 4 (Array.length merged);
  let check_worker w expect =
    let seen =
      Array.to_list merged
      |> List.filter (fun r -> r.Tr.worker = w)
      |> List.map (fun r ->
          match r.Tr.event with Tr.Restart { number } -> number | _ -> -1)
    in
    Alcotest.(check (list int)) "per-worker order" expect seen
  in
  check_worker 0 [ 0; 1 ];
  check_worker 1 [ 100; 101 ];
  for i = 1 to Array.length merged - 1 do
    Alcotest.(check bool) "globally time-sorted" true
      (merged.(i).Tr.time_s >= merged.(i - 1).Tr.time_s)
  done

let portfolio_interleaving () =
  (* a real multi-worker run: each worker's subsequence of the absorbed
     stream must keep dense, increasing seq numbers *)
  let sink = Tr.make_sink () in
  let options =
    { Sat.Portfolio.default_options with Sat.Portfolio.jobs = 3 }
  in
  let r = Sat.Portfolio.solve ~trace:sink ~options (php 5 4) in
  (match r.Sat.Portfolio.outcome with
   | T.Unsat -> ()
   | _ -> Alcotest.fail "php 5/4 must be UNSAT");
  let per_worker = Hashtbl.create 8 in
  Array.iter
    (fun (rec_ : Tr.record) ->
       let w = rec_.Tr.worker in
       let prev = Option.value ~default:(-1) (Hashtbl.find_opt per_worker w) in
       Alcotest.(check bool) "seq increases within worker" true
         (rec_.Tr.seq > prev);
       Hashtbl.replace per_worker w rec_.Tr.seq)
    (Tr.merged [ sink ]);
  Alcotest.(check bool) "several workers traced" true
    (Hashtbl.length per_worker >= 2);
  (* merged view of the absorbed sink is globally time-sorted *)
  let m = Tr.merged [ sink ] in
  for i = 1 to Array.length m - 1 do
    Alcotest.(check bool) "merged time-sorted" true
      (m.(i).Tr.time_s >= m.(i - 1).Tr.time_s)
  done

let jsonl_encoding () =
  let s = Tr.make_sink () in
  Tr.emit s (Tr.Learn { lbd = 2; size = 5 });
  let j = Tr.record_to_json (Tr.records s).(0) in
  let get k = Option.get (Sat.Json.member k j) in
  Alcotest.(check string) "ev" "learn"
    (Option.get (Sat.Json.to_string_opt (get "ev")));
  Alcotest.(check int) "lbd" 2 (Option.get (Sat.Json.to_int (get "lbd")));
  Alcotest.(check int) "size" 5 (Option.get (Sat.Json.to_int (get "size")));
  let h = Tr.header ~tool:"t" ~dropped:0 () in
  Alcotest.(check string) "header schema" Tr.schema_name
    (Option.get (Sat.Json.to_string_opt (Option.get (Sat.Json.member "schema" h))))

let suite =
  [
    Th.case "sink capacity, seq, timestamps" sink_mechanics;
    Th.case "cdcl event stream" cdcl_event_stream;
    Th.case "session query spans" session_spans;
    Th.case "merged keeps per-worker order" merged_ordering;
    Th.case "portfolio interleaving" portfolio_interleaving;
    Th.case "JSONL encoding" jsonl_encoding;
  ]
