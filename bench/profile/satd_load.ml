(* The satd workload: an open-loop replay against a satd subprocess
   started with its default configuration on a Unix socket.

   One single-threaded generator on one connection sends pipelined
   requests at seeded Poisson arrival times and times each reply from
   its scheduled send time, so a stall also charges the requests queued
   behind it.  The traffic mix has one tenant per class:

     50%  repeat    exact repeats of 4 small CEC miters (cache hits)
     25%  grown     chains where each query extends the previous one
     20%  cold      unique small 3-SAT
      5%  budget    php(8,7) under a conflict budget, cache off:
                    answers unknown by design

   Every expected status is computed when the request is generated:
   SAT by model evaluation, UNSAT by a forward-checked proof
   (Proof.solve_certified). *)

module P = Service.Protocol
module J = Sat.Json
module T = Sat.Types

(* Frozen at calibration (README.md): the fixed rates, in requests per
   second, and the latency limit on p98.  Changing any of them changes
   the benchmark. *)
let rate_low = 100.
let rate_mid = 240.
let rate_high = 600.
let limit_ms = 50.

type klass = Repeat | Grown | Cold | Budget

let tenant = function
  | Repeat -> "repeat"
  | Grown -> "grown"
  | Cold -> "cold"
  | Budget -> "budget"

type expect = Is_sat | Is_unsat | Unsat_or_unknown

type request = {
  id : string;
  klass : klass;
  params : P.solve_params;
  frame : string;
  expect : expect;
}

(* --- traffic ------------------------------------------------------------- *)

(* The expected status of a generated query: a plain solve, whose SAT
   model is checked here, and for UNSAT a second solve whose proof is
   forward-checked. *)
let certified_answer clauses =
  let f = Cnf.Formula.create () in
  List.iter (Cnf.Formula.add_dimacs f) clauses;
  match Sat.Cdcl.solve (Sat.Cdcl.create f) with
  | T.Sat m when Gen.satisfies clauses (fun v -> v < Array.length m && m.(v)) ->
    Is_sat
  | T.Unsat when snd (Sat.Proof.solve_certified f) = Sat.Proof.Valid_refutation ->
    Is_unsat
  | _ -> failwith "satd traffic: a generated query has no certified answer"

(* Query k of a chain is the base plus the first k blocks.  Once a
   prefix is UNSAT so is every longer query. *)
type chain = {
  base : int list list;
  blocks : int list list array;
  mutable step : int;
  mutable unsat : bool;
}

type sizes = {
  cold_vars : int;
  chain_vars : int;
  chain_block : int;
  chain_steps : int;
  php : int * int;
  budget : int;
  repeat_miters : (Circuit.Netlist.t * Circuit.Netlist.t) list;
}

let full_sizes =
  let module G = Circuit.Generators in
  {
    cold_vars = 60;
    chain_vars = 100;
    chain_block = 12;
    chain_steps = 8;
    php = (8, 7);
    budget = 400;
    repeat_miters =
      [
        (G.multiplier ~bits:4, G.wallace_multiplier ~bits:4);
        (G.ripple_adder ~bits:16, G.kogge_stone_adder ~bits:16);
        (G.multiplier ~bits:5, Circuit.Transform.rewrite_xor (G.multiplier ~bits:5));
        (G.barrel_shifter ~bits:8, Circuit.Transform.rewrite_xor (G.barrel_shifter ~bits:8));
      ];
  }

let smoke_sizes =
  let module G = Circuit.Generators in
  {
    cold_vars = 30;
    chain_vars = 30;
    chain_block = 10;
    chain_steps = 3;
    php = (5, 4);
    budget = 50;
    repeat_miters =
      [
        (G.multiplier ~bits:2, G.wallace_multiplier ~bits:2);
        (G.ripple_adder ~bits:4, G.kogge_stone_adder ~bits:4);
      ];
  }

type traffic = {
  sizes : sizes;
  repeats : (int list list * expect) array;
  budget_clauses : int list list;
}

let traffic sizes =
  let p, h = sizes.php in
  {
    sizes;
    repeats =
      Array.of_list
        (List.map
           (fun (a, b) ->
              let cls = Gen.clauses (Gen.miter a b) in
              (cls, certified_answer cls))
           sizes.repeat_miters);
    budget_clauses = Gen.clauses (Gen.php p h);
  }

let request ~id ?max_conflicts ?(use_cache = true) klass clauses expect =
  let params =
    P.mk_solve ?max_conflicts ~tenant:(tenant klass) ~use_cache clauses
  in
  {
    id;
    klass;
    params;
    frame = J.to_string (P.solve_request ~id params) ^ "\n";
    expect;
  }

type stream = {
  traffic : traffic;
  prefix : string;  (* request ids are unique across streams *)
  rng : Sat.Rng.t;
  mutable count : int;
  mutable chain : chain;
  mutable block : klass list;
}

(* The mix is stratified: every 20 requests hold exactly 10 repeats, 5
   grown, 4 cold and 1 budget query, in seeded order, so a run's class
   counts do not depend on its seed. *)
let shuffled_block rng =
  let a =
    Array.of_list
      (List.concat_map
         (fun (k, n) -> List.init n (fun _ -> k))
         [ (Repeat, 10); (Grown, 5); (Cold, 4); (Budget, 1) ])
  in
  for i = Array.length a - 1 downto 1 do
    let j = Sat.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let new_chain sizes rng =
  let n = sizes.chain_vars in
  let s () = 1 + Sat.Rng.int rng 1_000_000_000 in
  let base = Gen.clauses (Gen.random_3sat ~seed:(s ()) ~nvars:n ~ratio:3.0) in
  let tail = Gen.clauses (Gen.random_3sat ~seed:(s ()) ~nvars:n ~ratio:1.0) in
  let blocks =
    Array.init sizes.chain_steps (fun i ->
        List.filteri (fun j _ -> j / sizes.chain_block = i) tail)
  in
  { base; blocks; step = 0; unsat = false }

let stream traffic ~prefix ~seed =
  let rng = Sat.Rng.create ((seed * 104729) + Hashtbl.hash prefix) in
  { traffic; prefix; rng; count = 0; chain = new_chain traffic.sizes rng; block = [] }

let next s =
  let id = s.prefix ^ string_of_int s.count in
  s.count <- s.count + 1;
  let sizes = s.traffic.sizes in
  if s.block = [] then s.block <- shuffled_block s.rng;
  let klass = List.hd s.block in
  s.block <- List.tl s.block;
  match klass with
  | Repeat ->
    let cls, e =
      s.traffic.repeats.(Sat.Rng.int s.rng (Array.length s.traffic.repeats))
    in
    request ~id Repeat cls e
  | Grown ->
    if s.chain.step >= Array.length s.chain.blocks then
      s.chain <- new_chain sizes s.rng;
    let c = s.chain in
    let cls =
      c.base @ List.concat (Array.to_list (Array.sub c.blocks 0 (c.step + 1)))
    in
    c.step <- c.step + 1;
    if not c.unsat then c.unsat <- certified_answer cls = Is_unsat;
    request ~id Grown cls (if c.unsat then Is_unsat else Is_sat)
  | Cold ->
    let cls =
      Gen.clauses
        (Gen.random_3sat
           ~seed:(1 + Sat.Rng.int s.rng 1_000_000_000)
           ~nvars:sizes.cold_vars ~ratio:4.26)
    in
    request ~id Cold cls (certified_answer cls)
  | Budget ->
    request ~id ~max_conflicts:sizes.budget ~use_cache:false Budget
      s.traffic.budget_clauses Unsat_or_unknown

(* --- connection ---------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; inbox : Buffer.t; chunk : Bytes.t }

let send c frame =
  let len = String.length frame in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring c.fd frame !off (len - !off)
  done

(* Replies that arrive within [timeout] seconds, each with its arrival
   time.  The wait is capped at half a millisecond, and callers loop: a
   generator that sleeps longer lets its core go idle, and waking an idle
   core would add to every latency it measures. *)
let poll c timeout =
  match Unix.select [ c.fd ] [] [] (Float.min 0.0005 (Float.max 0. timeout)) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | [], _, _ -> []
  | _ ->
    let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
    if n = 0 then failwith "satd closed the connection";
    let got = Unix.gettimeofday () in
    Buffer.add_subbytes c.inbox c.chunk 0 n;
    let data = Buffer.contents c.inbox in
    let lines = String.split_on_char '\n' data in
    let rec split acc = function
      | [] -> (List.rev acc, "")
      | [ rest ] -> (List.rev acc, rest)
      | l :: more -> split (l :: acc) more
    in
    let complete, rest = split [] lines in
    Buffer.clear c.inbox;
    Buffer.add_string c.inbox rest;
    List.filter_map
      (fun line ->
         match J.parse_line line with
         | Ok j -> (
             match P.reply_of_json j with Ok r -> Some (r, got) | Error _ -> None)
         | Error _ -> None)
      complete

let rpc c frame id ~timeout =
  send c frame;
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    if Unix.gettimeofday () > deadline then failwith "satd did not answer"
    else
      match
        List.find_opt
          (fun (r, _) -> r.P.r_id = id)
          (poll c (deadline -. Unix.gettimeofday ()))
      with
      | Some (r, _) -> r
      | None -> wait ()
  in
  wait ()

(* --- daemon -------------------------------------------------------------- *)

type daemon = { pid : int; conn : conn }

let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
           (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
           try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Spawns satd and returns once it answered a ping, with the time that
   took. *)
let start ~satd ~socket =
  (try Sys.remove socket with Sys_error _ -> ());
  let t0 = Unix.gettimeofday () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process satd [| satd; "--socket"; socket |] null null
      Unix.stderr
  in
  Unix.close null;
  live := pid :: !live;
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.0002;
      connect (tries - 1)
  in
  let fd = connect 50_000 in
  let conn = { fd; inbox = Buffer.create 65536; chunk = Bytes.create 65536 } in
  let pong =
    rpc conn (J.to_string (P.ping_request ~id:"ping") ^ "\n") "ping" ~timeout:10.
  in
  if pong.P.r_status <> "ok" then failwith "satd: bad ping reply";
  ({ pid; conn }, Unix.gettimeofday () -. t0)

let stop d =
  (try
     ignore
       (rpc d.conn
          (J.to_string (P.shutdown_request ~id:"bye") ^ "\n")
          "bye" ~timeout:30.)
   with Failure _ | Unix.Unix_error _ -> Unix.kill d.pid Sys.sigkill);
  Unix.close d.conn.fd;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live

let stats d =
  match
    (rpc d.conn (J.to_string (P.stats_request ~id:"stats") ^ "\n") "stats"
       ~timeout:10.)
      .P.r_data
  with
  | Some data -> data
  | None -> failwith "satd: stats reply without data"

(* --- replay -------------------------------------------------------------- *)

type sample = {
  req : request;
  due : float;
  sent : float;
  got : float;  (* when the replay gave up, if no reply came *)
  reply : P.reply option;
  verdict : Report.verdict;
}

let judge req = function
  | None -> Report.Failed "no reply"
  | Some r -> (
    match (r.P.r_status, req.expect) with
    | "sat", _ ->
      let m = Option.value r.P.r_model ~default:[||] in
      if Gen.satisfies req.params.P.clauses (fun v -> v < Array.length m && m.(v))
      then Report.Pass
      else Report.Wrong "the model does not satisfy the query"
    | "unsat", (Is_unsat | Unsat_or_unknown) -> Report.Pass
    | "unsat", Is_sat -> Report.Wrong "unsat on a satisfiable query"
    | "unknown", Unsat_or_unknown -> Report.Pass
    | "unknown", _ ->
      Report.Failed ("unknown: " ^ Option.value r.P.r_reason ~default:"")
    | "error", _ ->
      Report.Failed
        (match r.P.r_error with
         | Some (code, _) -> P.error_code_string code
         | None -> "error")
    | other, _ -> Report.Failed other)

(* Sends each request at its offset from now and collects the replies,
   in schedule order; requests still unanswered [drain] seconds after
   the last send are missing.  Unless [keep], a judged sample drops its
   frame and clauses. *)
let replay ?(keep = false) c ~drain schedule =
  let n = Array.length schedule in
  let pending = Hashtbl.create (2 * n) in
  let replied = ref [] in
  let t0 = Unix.gettimeofday () +. 0.005 in
  let i = ref 0 in
  let deadline = ref infinity in
  while
    !i < n || (Hashtbl.length pending > 0 && Unix.gettimeofday () < !deadline)
  do
    while !i < n && t0 +. fst schedule.(!i) <= Unix.gettimeofday () do
      let due, req = schedule.(!i) in
      send c req.frame;
      Hashtbl.replace pending req.id (req, t0 +. due, Unix.gettimeofday ());
      incr i
    done;
    if !i = n && !deadline = infinity then
      deadline := Unix.gettimeofday () +. drain;
    let wait =
      if !i < n then t0 +. fst schedule.(!i) -. Unix.gettimeofday ()
      else !deadline -. Unix.gettimeofday ()
    in
    List.iter
      (fun ((r : P.reply), got) ->
         match Hashtbl.find_opt pending r.r_id with
         | Some (req, due, sent) ->
           Hashtbl.remove pending r.r_id;
           replied := (req, due, sent, got, Some r) :: !replied
         | None -> ())
      (poll c wait)
  done;
  let gave_up = Unix.gettimeofday () in
  Hashtbl.iter
    (fun _ (req, due, sent) -> replied := (req, due, sent, gave_up, None) :: !replied)
    pending;
  let samples =
    List.map
      (fun (req, due, sent, got, reply) ->
         let verdict = judge req reply in
         let req =
           if keep then req
           else { req with frame = ""; params = { req.params with P.clauses = [] } }
         in
         { req; due; sent; got; reply; verdict })
      !replied
  in
  (t0, List.sort (fun a b -> compare a.due b.due) samples)

(* Arrival offsets of a Poisson process of [rate] over [duration]
   seconds, conditioned on its count: sorted uniform points. *)
let poisson rng ~rate ~duration =
  let n = max 1 (int_of_float (Float.round (rate *. duration))) in
  let a = Array.init n (fun _ -> Sat.Rng.float rng *. duration) in
  Array.sort compare a;
  a

let latency_ms s = (s.got -. s.due) *. 1000.

(* One rate's samples, replayed in segments on different daemons.  Each
   latency percentile is the median of the segments' percentiles. *)
type step = {
  rate : float;
  samples : sample list;
  p50_ms : float;
  p98_ms : float;
  ok_qps : float;  (* correct replies within the limit, per second *)
  meets_limit : bool;
      (* p98 of all samples within the limit, no failure, no segment
         whose latency grows from its first quarter to its last *)
}

let summarize ~rate segments =
  let lat ss = List.map latency_ms ss in
  let per_segment q =
    Stat.median (List.map (fun (_, ss) -> Stat.quantile (lat ss) q) segments)
  in
  let samples = List.concat_map snd segments in
  let ok =
    List.filter
      (fun s -> s.verdict = Report.Pass && latency_ms s <= limit_ms)
      samples
  in
  let duration (t0, ss) =
    List.fold_left (fun m s -> Float.max m s.got) t0 ss -. t0
  in
  let growing (_, ss) =
    let l = lat ss in
    let n = List.length l in
    Stat.median (List.filteri (fun i _ -> 4 * i >= 3 * n) l)
    -. Stat.median (List.filteri (fun i _ -> 4 * i < n) l)
    > limit_ms /. 2.
  in
  {
    rate;
    samples;
    p50_ms = per_segment 0.5;
    p98_ms = per_segment 0.98;
    ok_qps =
      float_of_int (List.length ok)
      /. List.fold_left (fun a seg -> a +. duration seg) 0. segments;
    meets_limit =
      Stat.quantile (lat samples) 0.98 <= limit_ms
      && List.for_all (fun s -> s.verdict = Report.Pass) samples
      && not (List.exists growing segments);
  }

(* --- the workload -------------------------------------------------------- *)

(* A run is four rounds, each on a fresh daemon: a warm-up, [bursts]
   closed bursts, then its ladder segments, each with its share of
   --seconds.  Each mid segment holds 600 requests, so its p98 has 12
   samples beyond it.  On a two-core host the daemon's two domains and
   the generator share the cores, and a daemon can keep a fast or a slow
   placement for its lifetime; medians over the four daemons keep one
   such daemon from moving a metric. *)
let rounds =
  [
    [ ("mid", rate_mid, 0.125); ("low", rate_low, 0.1) ];
    [ ("mid", rate_mid, 0.125); ("high", rate_high, 0.1) ];
    [ ("mid", rate_mid, 0.125); ("high", rate_high, 0.1) ];
    [ ("mid", rate_mid, 0.125) ];
  ]

let bursts = 4
let burst_size = 100
let extra_starts = 5

let socket () = Printf.sprintf "_profile/satd-%d.sock" (Unix.getpid ())

let int_at path j =
  List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path
  |> Fun.flip Option.bind J.to_int
  |> Option.value ~default:0

(* Mean microseconds per request of [f] over [reqs]. *)
let mean_us f reqs =
  let t0 = Unix.gettimeofday () in
  List.iter (fun r -> ignore (Sys.opaque_identity (f r))) reqs;
  (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int (max 1 (List.length reqs))

(* The per-layer metrics: library calls timed here on the frames the
   mid rate sent, the daemons' [stats] counters ([stat]), and reply
   fields. *)
let layers ~mid ~steps ~stat ~peak_queue ~traced_wall ~trace_overhead =
  let reqs = List.map (fun s -> s.req) mid.samples in
  let decode r =
    match J.parse_line (String.sub r.frame 0 (String.length r.frame - 1)) with
    | Ok j -> P.request_of_json j
    | Error e -> failwith e
  in
  let replies =
    List.filter_map (fun s -> Option.map (fun r -> (s, r)) s.reply) mid.samples
  in
  let service_ms keep =
    Stat.median
      (List.filter_map
         (fun (_, r) -> if keep r then Some (r.P.r_time_s *. 1000.) else None)
         replies)
  in
  let cache k = stat [ "cache"; k ] in
  let ladder_samples = List.concat_map (fun (_, st) -> st.samples) steps in
  [
    ("protocol.decode_us", mean_us decode reqs);
    ("protocol.encode_us",
     mean_us (fun r -> J.to_string (P.solve_request ~id:r.id r.params)) reqs);
    ("fhash.us",
     mean_us (fun r -> Service.Fhash.prefix_hashes r.params.P.clauses) reqs);
    ("cache.hit_ratio",
     Stat.ratio (cache "hits") (cache "hits" +. cache "misses"));
    ("cache.warm_ratio",
     Stat.ratio (cache "warm_hits") (cache "warm_hits" +. cache "cold_misses"));
    ("cache.results_evicted", cache "results_evicted");
    ("cache.sessions_evicted", cache "sessions_evicted");
    ("service.hit_ms.p50", service_ms (fun r -> r.P.r_cached));
    ("service.warm_ms.p50", service_ms (fun r -> r.P.r_warm));
    ("service.cold_ms.p50",
     service_ms (fun r -> (not r.P.r_cached) && not r.P.r_warm));
    ("server.wait_ms.p99",
     Stat.quantile
       (List.map
          (fun (s, r) -> (s.got -. s.sent -. r.P.r_time_s) *. 1000.)
          replies)
       0.99);
    ("scheduler.peak_queue_depth", peak_queue);
    ("scheduler.overloaded", stat [ "service"; "overloaded" ]);
    ("scheduler.timeouts", stat [ "service"; "timeouts" ]);
    ("satd.p98_ms", mid.p98_ms);
    ("satd.max_ok_qps",
     List.fold_left
       (fun m (_, st) -> if st.meets_limit then Float.max m st.rate else m)
       0. steps);
    ("loadgen.lag_ms.p99",
     Stat.quantile
       (List.map (fun s -> (s.sent -. s.due) *. 1000.) ladder_samples)
       0.99);
    ("trace.pass_s", traced_wall);
    ("trace.overhead", trace_overhead);
  ]

let record_spans name (t0, samples) =
  let stop = List.fold_left (fun m s -> Float.max m s.got) t0 samples in
  let parent = Layer.record ~item:name ("satd." ^ name) t0 stop in
  List.iter
    (fun s ->
       ignore
         (Layer.record ~parent ~item:(tenant s.req.klass ^ "/" ^ s.req.id)
            "satd.request" s.due s.got))
    samples

let warmup traffic =
  Array.mapi
    (fun i (cls, e) -> (0., request ~id:("w" ^ string_of_int i) Repeat cls e))
    traffic.repeats

type round = {
  start_s : float;
  burst_walls : (bool * float) list;  (* traced?, seconds *)
  segments : (string * (float * sample list)) list;
  rss_mb : float;
  stats : J.t;
  samples : sample list;  (* every reply of the round *)
}

let run_round ~satd ~socket ~seconds ~smoke ~traced ~bs ~ls ~rng index plan =
  let d, start_s = start ~satd ~socket in
  let samples = ref [] in
  let go name ~drain schedule =
    let keep = traced && name = "mid" in
    let ((_, ss) as r) = replay ~keep d.conn ~drain schedule in
    samples := List.rev_append ss !samples;
    if !Layer.on then record_spans name r;
    r
  in
  (* every repeat miter once, so that repeats read the cache *)
  ignore (go "warmup" ~drain:60. (warmup bs.traffic));
  (* closed bursts: a whole burst pipelined at once, timed to its last
     reply; in a traced run traced and untraced bursts alternate, and
     which comes first alternates between rounds *)
  let burst_walls =
    List.init (if smoke then 1 else bursts) (fun k ->
        let schedule =
          Array.init (if smoke then 10 else burst_size) (fun _ -> (0., next bs))
        in
        let on = traced && (k + index) mod 2 = 1 in
        Layer.on := on;
        let t0, ss = go "burst" ~drain:60. schedule in
        Layer.on := traced;
        (on, List.fold_left (fun m s -> Float.max m s.got) t0 ss -. t0))
  in
  let segments =
    List.map
      (fun (name, rate, share) ->
         let schedule =
           Array.map
             (fun o -> (o, next ls))
             (poisson rng ~rate ~duration:(share *. seconds))
         in
         (name, go name ~drain:30. schedule))
      plan
  in
  let stats = stats d in
  let rss_mb = Report.peak_rss_mb (string_of_int d.pid) in
  stop d;
  { start_s; burst_walls; segments; rss_mb; stats; samples = !samples }

let run ~satd ~seconds ~smoke ~seed ~traced : Report.t =
  let traffic = traffic (if smoke then smoke_sizes else full_sizes) in
  let socket = socket () in
  let bs = stream traffic ~prefix:"b" ~seed in
  let ls = stream traffic ~prefix:"l" ~seed in
  let rng = Sat.Rng.create ((seed * 31) + 7) in
  let extra =
    List.init (if smoke then 0 else extra_starts) (fun _ ->
        let d, t = start ~satd ~socket in
        stop d;
        t)
  in
  let rounds =
    List.mapi
      (run_round ~satd ~socket ~seconds ~smoke ~traced ~bs ~ls ~rng)
      (if smoke then [ List.hd rounds ] else rounds)
  in
  let steps =
    List.filter_map
      (fun (name, rate) ->
         match
           List.concat_map
             (fun r -> List.filter_map (fun (n, seg) -> if n = name then Some seg else None) r.segments)
             rounds
         with
         | [] -> None
         | segs -> Some (name, summarize ~rate segs))
      [ ("low", rate_low); ("mid", rate_mid); ("high", rate_high) ]
  in
  let mid = List.assoc "mid" steps in
  let high = Option.value (List.assoc_opt "high" steps) ~default:mid in
  let wall on =
    Stat.median
      (List.concat_map
         (fun r -> List.filter_map (fun (o, w) -> if o = on then Some w else None) r.burst_walls)
         rounds)
  in
  let all = List.concat_map (fun r -> r.samples) rounds in
  let stat path =
    float_of_int (List.fold_left (fun a r -> a + int_at path r.stats) 0 rounds)
  in
  let peak_queue =
    List.fold_left
      (fun a r -> Float.max a (float_of_int (int_at [ "service"; "peak_queue_depth" ] r.stats)))
      0. rounds
  in
  {
    e2e =
      [
        ("wall_s", wall false);
        ("setup_s", Stat.median (extra @ List.map (fun r -> r.start_s) rounds));
        ("peak_rss_mb", Stat.median (List.map (fun r -> r.rss_mb) rounds));
        ("p50_ms", mid.p50_ms);
        ("ok_qps", high.ok_qps);
      ];
    layers =
      (if traced then
         layers ~mid ~steps ~stat ~peak_queue ~traced_wall:(wall true)
           ~trace_overhead:(Stat.ratio (wall true) (wall false) -. 1.)
       else []);
    attempted = List.length all;
    failed =
      List.length
        (List.filter
           (fun s -> match s.verdict with Report.Failed _ -> true | _ -> false)
           all);
    wrong =
      List.filter_map
        (fun s ->
           match s.verdict with
           | Report.Wrong why ->
             Some (tenant s.req.klass ^ " " ^ s.req.id ^ ": " ^ why)
           | _ -> None)
        all;
  }

(* Prints latency at each of [rates], [seconds] each, on one daemon: how
   the frozen rates and limit above were chosen. *)
let calibrate ~satd ~seed ~seconds rates =
  let traffic = traffic full_sizes in
  let d, _ = start ~satd ~socket:(socket ()) in
  ignore (replay d.conn ~drain:60. (warmup traffic));
  let ls = stream traffic ~prefix:"l" ~seed in
  let rng = Sat.Rng.create seed in
  Printf.printf "%8s %9s %9s %9s %9s %s\n%!" "rate" "requests" "p50_ms"
    "p98_ms" "ok_qps" "meets_limit";
  List.iter
    (fun rate ->
       let schedule =
         Array.map (fun o -> (o, next ls)) (poisson rng ~rate ~duration:seconds)
       in
       let st = summarize ~rate [ replay d.conn ~drain:30. schedule ] in
       Printf.printf "%8.0f %9d %9.2f %9.2f %9.2f %b\n%!" rate
         (List.length st.samples) st.p50_ms st.p98_ms st.ok_qps st.meets_limit)
    rates;
  stop d
