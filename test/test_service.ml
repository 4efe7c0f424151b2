(* The SAT service layer: formula chain hashing, the wire protocol,
   the result/session cache, the scheduler, and a live daemon exercised
   end-to-end over a Unix-domain socket. *)

module J = Sat.Json
module T = Sat.Types
module F = Service.Fhash
module P = Service.Protocol

let php = Test_session.php

let clauses_of_formula f =
  let out = ref [] in
  Cnf.Formula.iter_clauses f (fun c ->
      out := List.map Cnf.Lit.to_dimacs (Cnf.Clause.to_list c) :: !out);
  List.rev !out

let php_clauses n m = clauses_of_formula (php n m)

(* --- chain hashing -------------------------------------------------------- *)

let fhash_canonical () =
  (* literal order and duplicates inside a clause do not matter *)
  Alcotest.(check bool) "permuted lits" true
    (F.full [ [ 1; -2; 3 ] ] = F.full [ [ 3; 1; -2 ] ]);
  Alcotest.(check bool) "duplicate lits" true
    (F.full [ [ 1; 1; 2 ] ] = F.full [ [ 1; 2 ] ]);
  (* clause order matters: the chain is a sequence, not a set, so every
     prefix of a growing formula has a stable hash *)
  Alcotest.(check bool) "clause order sensitive" true
    (F.full [ [ 1 ]; [ 2 ] ] <> F.full [ [ 2 ]; [ 1 ] ]);
  Alcotest.(check bool) "distinct formulas distinct" true
    (F.full (php_clauses 5 4) <> F.full (php_clauses 5 5));
  Alcotest.(check bool) "polarity matters" true
    (F.full [ [ 1 ] ] <> F.full [ [ -1 ] ])

let fhash_prefix_chain () =
  let cls = [ [ 1; 2 ]; [ -1; 3 ]; [ -2; -3 ] ] in
  let hs = F.prefix_hashes cls in
  Alcotest.(check int) "n+1 hashes" (List.length cls + 1) (Array.length hs);
  Alcotest.(check bool) "starts empty" true (hs.(0) = F.empty);
  Alcotest.(check bool) "ends full" true (hs.(3) = F.full cls);
  (* each prefix hash equals the independent hash of that prefix *)
  Alcotest.(check bool) "prefix 2" true (hs.(2) = F.full [ [ 1; 2 ]; [ -1; 3 ] ]);
  (* extend is the chain step *)
  Alcotest.(check bool) "extend" true (F.extend hs.(2) [ -2; -3 ] = hs.(3));
  Alcotest.(check bool) "hex is 16 chars" true
    (String.length (F.to_hex hs.(3)) = 16)

(* --- protocol ------------------------------------------------------------- *)

let decode json =
  match P.request_of_json json with
  | Ok (id, req) -> (id, req)
  | Error (_, _, msg) -> Alcotest.failf "decode failed: %s" msg

let protocol_solve_roundtrip () =
  let params =
    P.mk_solve ~nvars:5 ~assumptions:[ 1; -3 ] ~max_conflicts:100
      ~timeout_ms:2000 ~tenant:"atpg" ~use_cache:false
      [ [ 1; 2 ]; [ -1; 3 ] ]
  in
  match decode (P.solve_request ~id:"q7" params) with
  | "q7", P.Solve p ->
    Alcotest.(check bool) "clauses" true (p.P.clauses = params.P.clauses);
    Alcotest.(check int) "nvars" 5 p.P.nvars;
    Alcotest.(check bool) "assumptions" true (p.P.assumptions = [ 1; -3 ]);
    Alcotest.(check bool) "conflicts" true (p.P.max_conflicts = Some 100);
    Alcotest.(check bool) "timeout" true (p.P.timeout_ms = Some 2000);
    Alcotest.(check string) "tenant" "atpg" p.P.tenant;
    Alcotest.(check bool) "cache off" false p.P.use_cache
  | _, _ -> Alcotest.fail "wrong request shape"

let protocol_other_verbs () =
  (match decode (P.ping_request ~id:"a") with
   | "a", P.Ping -> ()
   | _ -> Alcotest.fail "ping");
  (match decode (P.stats_request ~id:"b") with
   | "b", P.Stats -> ()
   | _ -> Alcotest.fail "stats");
  (match decode (P.shutdown_request ~id:"c") with
   | "c", P.Shutdown -> ()
   | _ -> Alcotest.fail "shutdown");
  match decode (P.cancel_request ~id:"d" ~target:"q1") with
  | "d", P.Cancel "q1" -> ()
  | _ -> Alcotest.fail "cancel"

let protocol_dimacs_payload () =
  (* a solve request may carry the formula as DIMACS text instead of a
     clause list *)
  let json =
    J.Obj
      [
        ("v", J.Int P.version);
        ("id", J.String "x");
        ("verb", J.String "solve");
        ("dimacs", J.String "p cnf 2 2\n1 2 0\n-1 2 0\n");
      ]
  in
  match decode json with
  | "x", P.Solve p ->
    Alcotest.(check bool) "clauses" true (p.P.clauses = [ [ 1; 2 ]; [ -1; 2 ] ]);
    Alcotest.(check bool) "nvars" true (p.P.nvars >= 2)
  | _ -> Alcotest.fail "dimacs solve"

let protocol_rejects () =
  let refused ?(code = P.Bad_request) json =
    match P.request_of_json json with
    | Ok _ -> Alcotest.fail "should have been refused"
    | Error (_, c, _) ->
      Alcotest.(check string) "code" (P.error_code_string code)
        (P.error_code_string c)
  in
  refused (J.List [ J.Int 1 ]);
  refused (J.Obj [ ("id", J.String "x"); ("verb", J.String "frobnicate") ]);
  (* zero is the DIMACS terminator, never a literal *)
  refused
    (J.Obj
       [
         ("id", J.String "x");
         ("verb", J.String "solve");
         ("clauses", J.List [ J.List [ J.Int 1; J.Int 0 ] ]);
       ]);
  (* protocol version mismatch *)
  refused
    (J.Obj
       [ ("v", J.Int 99); ("id", J.String "x"); ("verb", J.String "ping") ]);
  (* error replies keep the id when it is recoverable *)
  match
    P.request_of_json
      (J.Obj [ ("id", J.String "q9"); ("verb", J.String "nope") ])
  with
  | Error ("q9", _, _) -> ()
  | _ -> Alcotest.fail "id not recovered"

let protocol_reply_roundtrip () =
  let reply json =
    match P.reply_of_json json with
    | Ok r -> r
    | Error e -> Alcotest.failf "reply refused: %s" e
  in
  let res cached outcome =
    {
      P.outcome;
      cached;
      warm = false;
      matched_prefix = 0;
      time_s = 0.25;
      conflicts = 3;
      decisions = 9;
    }
  in
  let sat = reply (P.solve_reply ~id:"s" ~nvars:3 (res true (T.Sat [| true; false; true |]))) in
  Alcotest.(check string) "sat id" "s" sat.P.r_id;
  Alcotest.(check string) "sat status" "sat" sat.P.r_status;
  Alcotest.(check bool) "sat cached" true sat.P.r_cached;
  (match sat.P.r_model with
   | Some m -> Alcotest.(check bool) "model" true (m = [| true; false; true |])
   | None -> Alcotest.fail "sat reply lost its model");
  let unsat = reply (P.solve_reply ~id:"u" ~nvars:2 (res false T.Unsat)) in
  Alcotest.(check string) "unsat status" "unsat" unsat.P.r_status;
  let unk = reply (P.solve_reply ~id:"k" ~nvars:2 (res false (T.Unknown "timeout"))) in
  Alcotest.(check string) "unknown status" "unknown" unk.P.r_status;
  Alcotest.(check bool) "reason" true (unk.P.r_reason = Some "timeout");
  let err = reply (P.error_reply ~id:"e" P.Overloaded "queue is full") in
  Alcotest.(check string) "error status" "error" err.P.r_status;
  (match err.P.r_error with
   | Some (P.Overloaded, _) -> ()
   | _ -> Alcotest.fail "error code lost");
  let ok = reply (P.ok_reply ~id:"o" ~verb:"ping") in
  Alcotest.(check string) "ok status" "ok" ok.P.r_status

(* --- cache ---------------------------------------------------------------- *)

let cache_results () =
  let c = Service.Cache.create ~max_results:2 () in
  let cls = [ [ 1; 2 ]; [ -1 ] ] in
  let h = F.full cls in
  Alcotest.(check bool) "empty miss" true
    (Service.Cache.find_result c ~hash:h ~nclauses:2 ~assumptions:[] = None);
  Service.Cache.store_result c ~hash:h ~nclauses:2 ~assumptions:[]
    (T.Sat [| false; true |]);
  (match Service.Cache.find_result c ~hash:h ~nclauses:2 ~assumptions:[] with
   | Some (T.Sat _) -> ()
   | _ -> Alcotest.fail "stored result lost");
  (* clause-count mismatch = hash collision guard *)
  Alcotest.(check bool) "collision guard" true
    (Service.Cache.find_result c ~hash:h ~nclauses:3 ~assumptions:[] = None);
  (* assumptions key, order-insensitively *)
  Service.Cache.store_result c ~hash:h ~nclauses:2 ~assumptions:[ 2; 1 ] T.Unsat;
  (match Service.Cache.find_result c ~hash:h ~nclauses:2 ~assumptions:[ 1; 2 ] with
   | Some T.Unsat -> ()
   | _ -> Alcotest.fail "assumption key mismatch");
  (* Unknown never stored *)
  Service.Cache.store_result c ~hash:h ~nclauses:2 ~assumptions:[ 7 ]
    (T.Unknown "budget");
  Alcotest.(check bool) "unknown not cached" true
    (Service.Cache.find_result c ~hash:h ~nclauses:2 ~assumptions:[ 7 ] = None);
  (* FIFO eviction at capacity 2 *)
  Service.Cache.store_result c ~hash:(F.full [ [ 9 ] ]) ~nclauses:1
    ~assumptions:[] T.Unsat;
  let s = Service.Cache.stats c in
  Alcotest.(check int) "capacity held" 2 s.Service.Cache.results_stored;
  Alcotest.(check int) "evicted one" 1 s.Service.Cache.results_evicted

let cache_session_pool () =
  let c = Service.Cache.create ~max_sessions:2 () in
  let cls = [ [ 1; 2 ]; [ -1; 3 ]; [ -2; -3 ] ] in
  let hs = F.prefix_hashes cls in
  Alcotest.(check bool) "cold" true (Service.Cache.checkout c hs = None);
  (* pool a session holding the 2-clause prefix *)
  let s = Sat.Session.create () in
  Sat.Session.add_clause s [ Cnf.Lit.of_dimacs 1; Cnf.Lit.of_dimacs 2 ];
  Sat.Session.add_clause s [ Cnf.Lit.of_dimacs (-1); Cnf.Lit.of_dimacs 3 ];
  Service.Cache.checkin c ~hash:hs.(2) ~nclauses:2 s;
  (match Service.Cache.checkout c hs with
   | Some (s', n) ->
     Alcotest.(check int) "longest prefix" 2 n;
     Alcotest.(check bool) "same session" true (s' == s)
   | None -> Alcotest.fail "warm prefix not found");
  (* checkout removes: exclusive ownership *)
  Alcotest.(check bool) "removed" true (Service.Cache.checkout c hs = None);
  (* an exact-hash pool entry beats a shorter prefix *)
  let short = Sat.Session.create () in
  Sat.Session.add_clause short [ Cnf.Lit.of_dimacs 1; Cnf.Lit.of_dimacs 2 ];
  Service.Cache.checkin c ~hash:hs.(1) ~nclauses:1 short;
  Service.Cache.checkin c ~hash:hs.(3) ~nclauses:3 s;
  (match Service.Cache.checkout c hs with
   | Some (_, 3) -> ()
   | Some (_, n) -> Alcotest.failf "expected full match, got prefix %d" n
   | None -> Alcotest.fail "pool empty")

(* --- scheduler ------------------------------------------------------------ *)

let sched_solve params =
  let sch = Service.Scheduler.create ~jobs:2 () in
  let r = Service.Scheduler.solve sch params in
  Service.Scheduler.shutdown sch;
  r

let scheduler_solves () =
  (match sched_solve (P.mk_solve (php_clauses 5 5)) with
   | Ok a ->
     (match a.Service.Scheduler.outcome with
      | T.Sat _ -> ()
      | o -> Alcotest.failf "expected sat, got %a" T.pp_outcome o)
   | Error _ -> Alcotest.fail "refused");
  match sched_solve (P.mk_solve (php_clauses 5 4)) with
  | Ok a ->
    (match a.Service.Scheduler.outcome with
     | T.Unsat -> ()
     | o -> Alcotest.failf "expected unsat, got %a" T.pp_outcome o)
  | Error _ -> Alcotest.fail "refused"

let scheduler_result_cache () =
  let sch = Service.Scheduler.create ~jobs:2 () in
  let params = P.mk_solve (php_clauses 6 5) in
  (match Service.Scheduler.solve sch params with
   | Ok a ->
     Alcotest.(check bool) "first solve not cached" false
       a.Service.Scheduler.cached
   | Error _ -> Alcotest.fail "refused");
  (match Service.Scheduler.solve sch params with
   | Ok a ->
     Alcotest.(check bool) "repeat cached" true a.Service.Scheduler.cached;
     (match a.Service.Scheduler.outcome with
      | T.Unsat -> ()
      | o -> Alcotest.failf "cached verdict wrong: %a" T.pp_outcome o)
   | Error _ -> Alcotest.fail "refused");
  let s = Service.Cache.stats (Service.Scheduler.cache sch) in
  Alcotest.(check int) "one hit" 1 s.Service.Cache.result_hits;
  Service.Scheduler.shutdown sch

let scheduler_warm_sessions () =
  let sch = Service.Scheduler.create ~jobs:1 () in
  let base = php_clauses 6 5 in
  (match Service.Scheduler.solve sch (P.mk_solve base) with
   | Ok a -> Alcotest.(check bool) "cold first" false a.Service.Scheduler.warm
   | Error _ -> Alcotest.fail "refused");
  (* grow the formula: same clause sequence + two fixing units; the
     repeat must resume the pooled session at the full prefix *)
  let grown = base @ [ [ 1 ]; [ -1 ] ] in
  (match Service.Scheduler.solve sch (P.mk_solve grown) with
   | Ok a ->
     Alcotest.(check bool) "warm resume" true a.Service.Scheduler.warm;
     Alcotest.(check int) "matched the whole base" (List.length base)
       a.Service.Scheduler.matched_prefix;
     (match a.Service.Scheduler.outcome with
      | T.Unsat -> ()
      | o -> Alcotest.failf "grown verdict wrong: %a" T.pp_outcome o)
   | Error _ -> Alcotest.fail "refused");
  Service.Scheduler.shutdown sch

let scheduler_cancellation () =
  let sch = Service.Scheduler.create ~jobs:1 () in
  let slow = P.mk_solve ~use_cache:false (php_clauses 10 9) in
  let got = Atomic.make None in
  (match
     Service.Scheduler.submit sch
       ~on_done:(fun a -> Atomic.set got (Some a))
       slow
   with
   | Ok job ->
     (* let the worker pick it up, then cancel mid-search *)
     Unix.sleepf 0.1;
     Service.Scheduler.cancel sch job;
     let rec wait n =
       if n = 0 then Alcotest.fail "cancelled query never answered";
       match Atomic.get got with
       | Some a ->
         (match a.Service.Scheduler.outcome with
          | T.Unknown "cancelled" -> ()
          | o -> Alcotest.failf "expected cancelled, got %a" T.pp_outcome o)
       | None ->
         Unix.sleepf 0.05;
         wait (n - 1)
     in
     wait 200
   | Error _ -> Alcotest.fail "refused");
  (* the worker and its session survive the cancellation *)
  (match Service.Scheduler.solve sch (P.mk_solve (php_clauses 5 5)) with
   | Ok a ->
     (match a.Service.Scheduler.outcome with
      | T.Sat _ -> ()
      | o -> Alcotest.failf "scheduler poisoned: %a" T.pp_outcome o)
   | Error _ -> Alcotest.fail "refused after cancel");
  Service.Scheduler.shutdown sch

let scheduler_deadline () =
  let sch = Service.Scheduler.create ~jobs:1 () in
  let got = Atomic.make None in
  let deadline = Sat.Monotime.now_s () +. 0.1 in
  (match
     Service.Scheduler.submit sch ~deadline
       ~on_done:(fun a -> Atomic.set got (Some a))
       (P.mk_solve ~use_cache:false (php_clauses 10 9))
   with
   | Ok _ ->
     let rec wait n =
       if n = 0 then Alcotest.fail "deadline never enforced";
       match Atomic.get got with
       | Some a ->
         (match a.Service.Scheduler.outcome with
          | T.Unknown "timeout" -> ()
          | o -> Alcotest.failf "expected timeout, got %a" T.pp_outcome o)
       | None ->
         Unix.sleepf 0.05;
         wait (n - 1)
     in
     wait 200
   | Error _ -> Alcotest.fail "refused");
  Service.Scheduler.shutdown sch

(* --- cube-and-conquer decomposition inside the scheduler ------------------- *)

(* every query below has at least 10 clauses, no assumptions and no
   budget, so each one is decomposed *)
let cube_threshold = 10

let service_counter sch name =
  match J.member "service" (Service.Scheduler.stats_json sch) with
  | Some svc -> (
      match J.member name svc with
      | Some (J.Int n) -> n
      | _ -> Alcotest.failf "no %s counter" name)
  | None -> Alcotest.fail "no service section"

let expect_answer what sch params want =
  match Service.Scheduler.solve sch params with
  | Ok a ->
    let o = a.Service.Scheduler.outcome in
    let ok =
      match (want, o) with
      | `Sat, T.Sat _ | `Unsat, T.Unsat -> true
      | _ -> false
    in
    if not ok then Alcotest.failf "%s: wrong verdict %a" what T.pp_outcome o;
    a
  | Error _ -> Alcotest.failf "%s: refused" what

(* submit a slow decomposed query, optionally cancel it, and wait for
   its answer *)
let decomposed_slow_query ?deadline ~cancel_after sch =
  let got = Atomic.make None in
  match
    Service.Scheduler.submit sch ?deadline
      ~on_done:(fun a -> Atomic.set got (Some a))
      (P.mk_solve ~use_cache:false (php_clauses 10 9))
  with
  | Error _ -> Alcotest.fail "refused"
  | Ok job ->
    Option.iter
      (fun secs ->
         Unix.sleepf secs;
         Service.Scheduler.cancel sch job)
      cancel_after;
    let rec wait n =
      if n = 0 then Alcotest.fail "decomposed query never answered";
      match Atomic.get got with
      | Some a -> a.Service.Scheduler.outcome
      | None ->
        Unix.sleepf 0.05;
        wait (n - 1)
    in
    wait 400

let scheduler_decomposed_unsat_cached () =
  let sch = Service.Scheduler.create ~jobs:1 ~cube_threshold () in
  let q = P.mk_solve (php_clauses 7 6) in
  let first = expect_answer "php(7,6)" sch q `Unsat in
  Alcotest.(check bool) "first answer searched" false
    first.Service.Scheduler.cached;
  let again = expect_answer "repeat" sch q `Unsat in
  Alcotest.(check bool) "repeat from the result cache" true
    again.Service.Scheduler.cached;
  ignore (expect_answer "following query" sch (P.mk_solve (php_clauses 5 5)) `Sat);
  Alcotest.(check int) "decomposed runs" 2 (service_counter sch "decomposed");
  Service.Scheduler.shutdown sch

let scheduler_decomposed_cancel () =
  let sch = Service.Scheduler.create ~jobs:1 ~cube_threshold () in
  (match decomposed_slow_query ~cancel_after:(Some 0.1) sch with
   | T.Unknown "cancelled" -> ()
   | o -> Alcotest.failf "expected cancelled, got %a" T.pp_outcome o);
  Alcotest.(check int) "cancellation counted" 1
    (service_counter sch "cancelled");
  ignore
    (expect_answer "following query" sch (P.mk_solve (php_clauses 5 4)) `Unsat);
  Service.Scheduler.shutdown sch

let scheduler_decomposed_deadline () =
  let sch = Service.Scheduler.create ~jobs:1 ~cube_threshold () in
  let deadline = Sat.Monotime.now_s () +. 0.1 in
  (match decomposed_slow_query ~deadline ~cancel_after:None sch with
   | T.Unknown "timeout" -> ()
   | o -> Alcotest.failf "expected timeout, got %a" T.pp_outcome o);
  Alcotest.(check int) "timeout counted" 1 (service_counter sch "timeouts");
  ignore
    (expect_answer "following query" sch (P.mk_solve (php_clauses 5 4)) `Unsat);
  Service.Scheduler.shutdown sch

(* sixteen concurrent decomposed queries on sixteen domains: every
   cube-and-conquer runs on the scheduler's own pool, so none can run
   the runtime out of domains (128 in OCaml 5.1).  Every query runs to
   its answer (about 12 s on two cores) rather than being cancelled
   early: the domains a decomposed query could add appear only once its
   cubes run, after a lookahead that takes seconds here. *)
let scheduler_decomposed_concurrent () =
  let sch = Service.Scheduler.create ~jobs:16 ~cube_threshold () in
  let got = Array.init 16 (fun _ -> Atomic.make None) in
  Array.iter
    (fun cell ->
       match
         Service.Scheduler.submit sch
           ~on_done:(fun a ->
               Atomic.set cell (Some a.Service.Scheduler.outcome))
           (P.mk_solve ~use_cache:false (php_clauses 9 8))
       with
       | Ok _ -> ()
       | Error _ -> Alcotest.fail "refused")
    got;
  Service.Scheduler.drain sch;
  Array.iteri
    (fun i cell ->
       match Atomic.get cell with
       | Some T.Unsat -> ()
       | Some o -> Alcotest.failf "query %d: %a" i T.pp_outcome o
       | None -> Alcotest.failf "query %d never answered" i)
    got;
  Service.Scheduler.shutdown sch

let scheduler_overload_and_drain () =
  (* one worker, queue of one: the third concurrent submission must be
     refused with Overloaded, not queued without bound *)
  let sch = Service.Scheduler.create ~jobs:1 ~max_queue:1 () in
  let slow () = P.mk_solve ~use_cache:false (php_clauses 9 8) in
  let submit () =
    Service.Scheduler.submit sch ~on_done:(fun _ -> ()) (slow ())
  in
  (match submit () with Ok _ -> () | Error _ -> Alcotest.fail "first refused");
  Unix.sleepf 0.1;
  (* worker busy on #1; #2 fills the queue *)
  (match submit () with Ok _ -> () | Error _ -> Alcotest.fail "second refused");
  let rec fill n =
    if n = 0 then Alcotest.fail "overload never signalled"
    else
      match submit () with
      | Error Service.Scheduler.Overloaded -> ()
      | Error Service.Scheduler.Draining -> Alcotest.fail "not draining yet"
      | Ok _ -> fill (n - 1)
  in
  fill 10;
  (* draining refuses immediately and drain completes (workers are
     interrupted by nothing here — the queries run to completion) *)
  Service.Scheduler.set_draining sch;
  (match submit () with
   | Error Service.Scheduler.Draining -> ()
   | _ -> Alcotest.fail "draining not signalled");
  Service.Scheduler.drain sch;
  Alcotest.(check bool) "quiescent" true (Service.Scheduler.quiescent sch);
  Service.Scheduler.shutdown sch

let scheduler_cache_hit_when_full () =
  (* an exact repeat is answered from the result cache at admission:
     a full queue refuses fresh work but not a cache hit *)
  let sch = Service.Scheduler.create ~jobs:1 ~max_queue:1 () in
  let small = P.mk_solve (php_clauses 4 3) in
  (match Service.Scheduler.solve sch small with
   | Ok a -> Alcotest.(check bool) "first answer solved" false a.cached
   | Error _ -> Alcotest.fail "small query refused");
  let slow = ref [] in
  let submit_slow () =
    match
      Service.Scheduler.submit sch ~on_done:(fun _ -> ())
        (P.mk_solve ~use_cache:false (php_clauses 9 8))
    with
    | Ok job -> slow := job :: !slow; true
    | Error Service.Scheduler.Overloaded -> false
    | Error Service.Scheduler.Draining -> Alcotest.fail "not draining yet"
  in
  ignore (submit_slow ());
  Unix.sleepf 0.1;
  (* worker busy on the first php(9,8); keep submitting until the queue
     is full *)
  let rec fill n =
    if n = 0 then Alcotest.fail "overload never signalled"
    else if submit_slow () then fill (n - 1)
  in
  fill 10;
  let answered = ref None in
  (match
     Service.Scheduler.submit sch ~on_done:(fun a -> answered := Some a)
       small
   with
   | Ok _ -> (
     (* answered in this thread, before [submit] returned *)
     match !answered with
     | Some a ->
       Alcotest.(check bool) "repeat answered from cache" true a.cached;
       Alcotest.(check bool) "cached verdict UNSAT" true
         (a.outcome = T.Unsat)
     | None -> Alcotest.fail "cache hit not answered at admission")
   | Error _ -> Alcotest.fail "cache hit refused under a full queue");
  (match
     Service.Scheduler.submit sch ~on_done:(fun _ -> ())
       (P.mk_solve (php_clauses 5 4))
   with
   | Error Service.Scheduler.Overloaded -> ()
   | _ -> Alcotest.fail "fresh query must be refused as overloaded");
  List.iter (Service.Scheduler.cancel sch) !slow;
  Service.Scheduler.drain sch;
  Alcotest.(check bool) "quiescent" true (Service.Scheduler.quiescent sch);
  Service.Scheduler.shutdown sch

let scheduler_tenant_metrics () =
  let sch = Service.Scheduler.create ~jobs:2 () in
  (match Service.Scheduler.solve sch (P.mk_solve ~tenant:"bmc" (php_clauses 6 5)) with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "refused");
  (match Service.Scheduler.solve sch (P.mk_solve ~tenant:"atpg" (php_clauses 5 5)) with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "refused");
  (match Service.Scheduler.stats_json sch with
   | J.Obj fields ->
     (match List.assoc_opt "tenants" fields with
      | Some (J.Obj tenants) ->
        Alcotest.(check bool) "bmc tenant" true
          (List.mem_assoc "bmc" tenants);
        Alcotest.(check bool) "atpg tenant" true
          (List.mem_assoc "atpg" tenants);
        (* the rollup carries real solver counters *)
        (match List.assoc "bmc" tenants with
         | J.Obj _ as m ->
           (match J.member "counters" m with
            | Some (J.Obj cs) ->
              (match List.assoc_opt "solver/conflicts" cs with
               | Some (J.Int c) ->
                 Alcotest.(check bool) "conflicts counted" true (c > 0)
               | _ -> Alcotest.fail "no conflicts counter")
            | _ -> Alcotest.fail "no counters")
         | _ -> Alcotest.fail "tenant not an object")
      | _ -> Alcotest.fail "no tenants rollup")
   | _ -> Alcotest.fail "stats not an object");
  Service.Scheduler.shutdown sch

(* --- end-to-end over a Unix socket ---------------------------------------- *)

let with_daemon ?(jobs = 2) ?(max_queue = 64) f =
  let dir = Filename.temp_file "satd_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "satd.sock" in
  let server =
    Service.Server.create
      { Service.Server.default_config with
        Service.Server.unix_path = Some path;
        jobs;
        max_queue }
  in
  let runner = Domain.spawn (fun () -> Service.Server.run server) in
  (* wait for the listener to answer *)
  let rec await n =
    if n = 0 then Alcotest.fail "daemon never came up";
    match Service.Client.connect_unix path with
    | c -> Service.Client.close c
    | exception Unix.Unix_error _ ->
      Unix.sleepf 0.02;
      await (n - 1)
  in
  await 250;
  Fun.protect
    ~finally:(fun () ->
      Service.Server.stop server;
      Domain.join runner;
      (try Sys.remove path with Sys_error _ -> ());
      (try Unix.rmdir dir with Unix.Unix_error _ -> ()))
    (fun () -> f path)

let expect_ok what = function
  | Ok (r : P.reply) when r.P.r_error = None -> r
  | Ok r ->
    (match r.P.r_error with
     | Some (c, m) ->
       Alcotest.failf "%s: error %s (%s)" what (P.error_code_string c) m
     | None -> assert false)
  | Error e -> Alcotest.failf "%s: %s" what e

let daemon_solves_and_caches () =
  with_daemon (fun path ->
      let c = Service.Client.connect_unix path in
      let r = expect_ok "ping" (Service.Client.ping c) in
      Alcotest.(check string) "pong" "ok" r.P.r_status;
      (* SAT and UNSAT through the wire *)
      let sat = expect_ok "sat" (Service.Client.solve c (P.mk_solve (php_clauses 5 5))) in
      Alcotest.(check string) "sat" "sat" sat.P.r_status;
      (match sat.P.r_model with
       | Some m ->
         (* the model really satisfies the formula *)
         Alcotest.(check bool) "model valid" true
           (Cnf.Formula.eval
              (fun v -> v < Array.length m && m.(v))
              (php 5 5))
       | None -> Alcotest.fail "no model");
      let unsat =
        expect_ok "unsat" (Service.Client.solve c (P.mk_solve (php_clauses 5 4)))
      in
      Alcotest.(check string) "unsat" "unsat" unsat.P.r_status;
      Alcotest.(check bool) "first solve searched" false unsat.P.r_cached;
      (* exact repeat answers from the result cache *)
      let again =
        expect_ok "repeat" (Service.Client.solve c (P.mk_solve (php_clauses 5 4)))
      in
      Alcotest.(check string) "repeat verdict" "unsat" again.P.r_status;
      Alcotest.(check bool) "repeat cached" true again.P.r_cached;
      (* stats reflect the hit *)
      let st = expect_ok "stats" (Service.Client.stats c) in
      (match st.P.r_data with
       | Some data ->
         (match J.member "cache" data with
          | Some cache ->
            (match J.member "hits" cache with
             | Some (J.Int h) ->
               Alcotest.(check bool) "cache hits visible" true (h >= 1)
             | _ -> Alcotest.fail "no hits counter")
          | None -> Alcotest.fail "no cache section")
       | None -> Alcotest.fail "stats carried no data");
      Service.Client.close c)

let daemon_survives_malformed_frames () =
  with_daemon (fun path ->
      let c = Service.Client.connect_unix path in
      (* raw garbage: not JSON at all *)
      Service.Client.send_raw c "this is not json\n";
      (match Service.Client.recv c with
       | Ok r ->
         Alcotest.(check string) "error reply" "error" r.P.r_status;
         (match r.P.r_error with
          | Some (P.Parse_error, _) -> ()
          | _ -> Alcotest.fail "expected parse_error")
       | Error e -> Alcotest.failf "recv failed: %s" e);
      (* valid JSON, invalid request *)
      Service.Client.send_raw c "{\"verb\":\"frobnicate\",\"id\":\"z\"}\n";
      (match Service.Client.recv c with
       | Ok r ->
         (match r.P.r_error with
          | Some (P.Bad_request, _) -> ()
          | _ -> Alcotest.fail "expected bad_request")
       | Error e -> Alcotest.failf "recv failed: %s" e);
      (* the same connection still works after both *)
      let r = expect_ok "ping after garbage" (Service.Client.ping c) in
      Alcotest.(check string) "alive" "ok" r.P.r_status;
      let sat =
        expect_ok "solve after garbage"
          (Service.Client.solve c (P.mk_solve [ [ 1 ] ]))
      in
      Alcotest.(check string) "still solving" "sat" sat.P.r_status;
      Service.Client.close c)

let daemon_survives_midquery_disconnect () =
  with_daemon ~jobs:1 (fun path ->
      (* a client fires a slow query and vanishes *)
      let rude = Service.Client.connect_unix path in
      Service.Client.send rude
        (P.solve_request ~id:"doomed"
           (P.mk_solve ~use_cache:false (php_clauses 10 9)));
      Unix.sleepf 0.15;
      (* the query is now running on the single worker *)
      Service.Client.close rude;
      (* the disconnect cancels it, freeing the worker for others *)
      let polite = Service.Client.connect_unix path in
      let t0 = Unix.gettimeofday () in
      let r =
        expect_ok "solve after disconnect"
          (Service.Client.solve polite (P.mk_solve (php_clauses 5 5)))
      in
      Alcotest.(check string) "healthy" "sat" r.P.r_status;
      Alcotest.(check bool) "served promptly (worker was freed)" true
        (Unix.gettimeofday () -. t0 < 30.);
      let st = expect_ok "stats" (Service.Client.stats polite) in
      (match st.P.r_data with
       | Some data ->
         (match J.member "service" data with
          | Some svc ->
            (match J.member "cancelled" svc with
             | Some (J.Int n) ->
               Alcotest.(check bool) "cancellation counted" true (n >= 1)
             | _ -> Alcotest.fail "no cancelled counter")
          | None -> Alcotest.fail "no service section")
       | None -> Alcotest.fail "no stats data");
      Service.Client.close polite)

let daemon_timeout_ms () =
  (* the deadline is enforced inside the solve: the reply comes about
     [timeout_ms] after admission, not at the event loop's next turn *)
  with_daemon ~jobs:1 (fun path ->
      let c = Service.Client.connect_unix path in
      let t0 = Unix.gettimeofday () in
      let r =
        expect_ok "timed query"
          (Service.Client.solve c
             (P.mk_solve ~timeout_ms:50 ~use_cache:false (php_clauses 10 9)))
      in
      let latency = Unix.gettimeofday () -. t0 in
      Printf.printf "timeout_ms 50 on php(10,9): reply after %.1f ms\n"
        (latency *. 1000.);
      Alcotest.(check string) "status" "unknown" r.P.r_status;
      Alcotest.(check (option string)) "reason" (Some "timeout") r.P.r_reason;
      (* 50 ms deadline + 150 ms slack for a loaded shared host; an event
         loop enforcing deadlines once per 0.2 s select turn misses this *)
      Alcotest.(check bool) "answered near the deadline" true (latency < 0.2);
      let ok =
        expect_ok "following query"
          (Service.Client.solve c (P.mk_solve (php_clauses 5 4)))
      in
      Alcotest.(check string) "still serving" "unsat" ok.P.r_status;
      Service.Client.close c)

let daemon_concurrent_clients () =
  with_daemon ~jobs:2 (fun path ->
      (* 8 client domains, mixed SAT/UNSAT, all answered correctly *)
      let clients =
        Array.init 8 (fun i ->
            Domain.spawn (fun () ->
                let c = Service.Client.connect_unix path in
                let expect, params =
                  if i mod 2 = 0 then ("sat", P.mk_solve (php_clauses 5 5))
                  else ("unsat", P.mk_solve (php_clauses 5 4))
                in
                let r = Service.Client.solve c params in
                Service.Client.close c;
                match r with
                | Ok rep -> rep.P.r_status = expect
                | Error _ -> false))
      in
      let oks = Array.map Domain.join clients in
      Alcotest.(check bool) "all 8 answered correctly" true
        (Array.for_all Fun.id oks))

let daemon_graceful_shutdown () =
  with_daemon (fun path ->
      let c = Service.Client.connect_unix path in
      let _ = expect_ok "solve" (Service.Client.solve c (P.mk_solve [ [ 1 ] ])) in
      let r = expect_ok "shutdown" (Service.Client.shutdown c) in
      Alcotest.(check string) "acknowledged" "ok" r.P.r_status;
      Service.Client.close c;
      (* the daemon is gone: new connections are refused *)
      Unix.sleepf 0.2;
      match Service.Client.connect_unix path with
      | c2 ->
        Service.Client.close c2;
        Alcotest.fail "daemon still listening after shutdown"
      | exception Unix.Unix_error _ -> ())

let suite =
  [
    Th.case "chain hash canonicalization" fhash_canonical;
    Th.case "prefix hash chain" fhash_prefix_chain;
    Th.case "protocol solve round trip" protocol_solve_roundtrip;
    Th.case "protocol other verbs" protocol_other_verbs;
    Th.case "protocol dimacs payload" protocol_dimacs_payload;
    Th.case "protocol rejects bad requests" protocol_rejects;
    Th.case "protocol reply round trip" protocol_reply_roundtrip;
    Th.case "result cache" cache_results;
    Th.case "warm session pool" cache_session_pool;
    Th.case "scheduler solves" scheduler_solves;
    Th.case "scheduler result cache" scheduler_result_cache;
    Th.case "scheduler warm sessions" scheduler_warm_sessions;
    Th.case "scheduler cancellation" scheduler_cancellation;
    Th.case "scheduler deadline" scheduler_deadline;
    Th.case "scheduler decomposed unsat is cached"
      scheduler_decomposed_unsat_cached;
    Th.case "scheduler decomposed cancellation" scheduler_decomposed_cancel;
    Th.case "scheduler decomposed deadline" scheduler_decomposed_deadline;
    Th.case "sixteen concurrent decomposed queries"
      scheduler_decomposed_concurrent;
    Th.case "scheduler overload and drain" scheduler_overload_and_drain;
    Th.case "scheduler answers cache hits when full"
      scheduler_cache_hit_when_full;
    Th.case "scheduler tenant metrics" scheduler_tenant_metrics;
    Th.case "daemon solves and caches" daemon_solves_and_caches;
    Th.case "daemon survives malformed frames" daemon_survives_malformed_frames;
    Th.case "daemon survives mid-query disconnect"
      daemon_survives_midquery_disconnect;
    Th.case "daemon answers timeout_ms as timeout" daemon_timeout_ms;
    Th.case "daemon serves concurrent clients" daemon_concurrent_clients;
    Th.case "daemon graceful shutdown" daemon_graceful_shutdown;
  ]
