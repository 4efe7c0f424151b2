(* The batch workloads: certify, large and cec.  Each item goes from its
   input text to a checked verdict; a pass runs every item once, and a
   run makes as many passes as fit in --seconds. *)

module T = Sat.Types
module S = Sat.Solver
module G = Circuit.Generators

type item = { name : string; run : unit -> Report.verdict }

(* The items are built on first use, so that set-up builds only the
   warm-up item. *)
type corpus = { warmup : item; items : item list Lazy.t }

let model_verdict f m =
  if
    Layer.time "check.model" (fun () ->
        Cnf.Formula.eval (fun v -> v < Array.length m && m.(v)) f)
  then Report.Pass
  else Report.Wrong "the model does not satisfy the formula"

let parse_dimacs text =
  Layer.add "dimacs.bytes" (float_of_int (String.length text));
  Layer.time "dimacs.parse" (fun () -> Cnf.Dimacs.parse_string text)

(* [Solver.solve] with the full pipeline; in a traced pass its registry
   is folded into the layer sums. *)
let solve ~config f =
  let metrics = Layer.metrics () in
  let words = Gc.minor_words () in
  let r =
    Layer.time "solver.solve" (fun () ->
        S.solve ?metrics ~engine:(S.Cdcl config) ~pipeline:S.full_pipeline f)
  in
  Option.iter
    (fun m ->
       Layer.add "cdcl.minor_words" (Gc.minor_words () -. words);
       Layer.add "preprocess" (Layer.timer m "pipeline/preprocess");
       Layer.add "equivalence" (Layer.timer m "pipeline/equivalence");
       Layer.add "recursive_learning"
         (Layer.timer m "pipeline/recursive_learning");
       Layer.add "cdcl" (Layer.timer m "solve");
       List.iter
         (fun (sum, counter) -> Layer.addi sum (Layer.counter m counter))
         [
           ("preprocess.vars_eliminated", "preprocess/vars_eliminated");
           ("preprocess.clauses_removed", "preprocess/clauses_removed");
           ("cdcl.conflicts", "solver/conflicts");
           ("cdcl.propagations", "solver/propagations");
         ])
    metrics;
  r

(* Trims an UNSAT proof to LRAT and replays it independently. *)
let certify f proof =
  Layer.addi "proof.steps" (List.length proof);
  match Layer.time "proof.trim" (fun () -> Sat.Proof.trim f proof) with
  | Sat.Proof.Trimmed { lines; core; kept_adds; total_adds } -> (
    Layer.addi "proof.kept_adds" kept_adds;
    Layer.addi "proof.total_adds" total_adds;
    Layer.addi "proof.core" (List.length core);
    Layer.addi "proof.clauses" (Cnf.Formula.nclauses f);
    match Layer.time "proof.check" (fun () -> Sat.Proof.check_lrat f lines) with
    | Ok () -> Report.Pass
    | Error e -> Report.Wrong ("the LRAT certificate fails: " ^ e))
  | Sat.Proof.Not_refutation -> Report.Wrong "the UNSAT proof refutes nothing"
  | Sat.Proof.Trim_invalid i ->
    Report.Wrong (Printf.sprintf "UNSAT proof step %d is not RUP" i)

(* satsolve --preprocess --proof --check *)
let certify_item name f =
  let text = Cnf.Dimacs.to_string f in
  let run () =
    let f = parse_dimacs text in
    let r = solve ~config:{ T.default with T.proof_logging = true } f in
    match r.S.outcome with
    | T.Sat m -> model_verdict f m
    | T.Unsat | T.Unsat_assuming _ ->
      certify f (Option.value r.S.proof ~default:[])
    | T.Unknown why -> Report.Failed why
  in
  { name; run }

(* satsolve --preprocess --equiv --rl 1; UNSAT is accepted only where
   the formula is unsatisfiable by construction. *)
let solve_item ~unsat name f =
  let text = Cnf.Dimacs.to_string f in
  let run () =
    let f = parse_dimacs text in
    let r = solve ~config:T.default f in
    match r.S.outcome with
    | T.Sat m -> model_verdict f m
    | T.Unsat | T.Unsat_assuming _ ->
      if unsat then Report.Pass
      else Report.Wrong "UNSAT on a formula not unsatisfiable by construction"
    | T.Unknown why -> Report.Failed why
  in
  { name; run }

(* cec_tool --engine fraig --jobs 1; Equivalent is accepted only for
   pairs equivalent by construction, and a counterexample must tell the
   two netlists apart in simulation. *)
let cec_item ~equivalent name a b =
  let text_a = Circuit.Bench_format.to_string a in
  let text_b = Circuit.Bench_format.to_string b in
  let run () =
    let a, b =
      Layer.time "bench_format.parse" (fun () ->
          ( Circuit.Bench_format.parse_string text_a,
            Circuit.Bench_format.parse_string text_b ))
    in
    let metrics = Layer.metrics () in
    let words = Gc.minor_words () in
    let r = Layer.time "sweep.check" (fun () -> Eda.Sweep.check ?metrics a b) in
    Option.iter
      (fun m ->
         let st = r.Eda.Sweep.stats and tm = r.Eda.Sweep.times in
         Layer.add "cdcl.minor_words" (Gc.minor_words () -. words);
         Layer.add "cdcl" tm.Eda.Sweep.prove_s;
         Layer.addi "cdcl.conflicts" st.Eda.Sweep.conflicts;
         Layer.addi "cdcl.propagations" (Layer.counter m "solver/propagations");
         List.iter
           (fun (k, v) -> Layer.add k v)
           [
             ("sweep.simulate", tm.Eda.Sweep.simulate_s);
             ("sweep.refine", tm.Eda.Sweep.refine_s);
             ("sweep.prove", tm.Eda.Sweep.prove_s);
           ];
         List.iter
           (fun (k, v) -> Layer.addi k v)
           [
             ("sweep.sat_calls", st.Eda.Sweep.sat_calls);
             ("sweep.candidates", st.Eda.Sweep.candidates);
             ("sweep.merges", st.Eda.Sweep.merges);
             ("sweep.refuted", st.Eda.Sweep.refuted);
             ("sweep.skipped", st.Eda.Sweep.skipped);
             ("sweep.refinement_rounds", st.Eda.Sweep.refinement_rounds);
             ("aig.nodes", st.Eda.Sweep.aig_nodes);
             ("aig.fraig_nodes", st.Eda.Sweep.fraig_nodes);
           ])
      metrics;
    match r.Eda.Sweep.verdict with
    | Eda.Verdict.Equivalent ->
      if equivalent then Report.Pass
      else Report.Wrong "Equivalent on a pair that differs by construction"
    | Eda.Verdict.Inequivalent cex ->
      if
        Layer.time "check.cex" (fun () ->
            Circuit.Simulate.eval_outputs a cex
            <> Circuit.Simulate.eval_outputs b cex)
      then Report.Pass
      else Report.Wrong "the counterexample does not tell the netlists apart"
    | Eda.Verdict.Inconclusive why -> Report.Failed why
  in
  { name; run }

(* --- corpora -------------------------------------------------------------- *)

let mult = G.multiplier
let wall = G.wallace_multiplier
let xor_pair c = (c, Circuit.Transform.rewrite_xor c)

let certify_corpus ~smoke ~seed =
  let miter name (a, b) = certify_item name (Gen.miter a b) in
  let random n =
    List.map
      (fun s ->
         certify_item
           (Printf.sprintf "3sat-n%d-%d" n s)
           (Gen.random_3sat ~seed:s ~nvars:n ~ratio:4.26))
      (Gen.seeds ~seed 4)
  in
  if smoke then
    {
      warmup = certify_item "php(4,3)" (Gen.php 4 3);
      items =
        lazy ([ certify_item "php(5,4)" (Gen.php 5 4);
          miter "mult3-xor" (xor_pair (mult ~bits:3)) ]
        @ random 30);
    }
  else
    {
      warmup = miter "mult-vs-wallace4" (mult ~bits:4, wall ~bits:4);
      items =
        lazy ([
          certify_item "php(8,7)" (Gen.php 8 7);
          miter "mult5-xor" (xor_pair (mult ~bits:5));
          miter "mult6-xor" (xor_pair (mult ~bits:6));
          miter "mult-vs-wallace5" (mult ~bits:5, wall ~bits:5);
          miter "wallace5-xor" (xor_pair (wall ~bits:5));
        ]
        @ random 120);
    }

let large_corpus ~smoke ~seed =
  let seeds = Gen.seeds ~seed 2 in
  let easy i n =
    let s = List.nth seeds i in
    solve_item ~unsat:false
      (Printf.sprintf "3sat-ratio3-n%d-%d" n s)
      (Gen.random_3sat ~seed:s ~nvars:n ~ratio:3.0)
  in
  let miter name (a, b) = solve_item ~unsat:true name (Gen.miter a b) in
  let adders bits = (G.ripple_adder ~bits, G.kogge_stone_adder ~bits) in
  if smoke then
    {
      warmup = miter "barrel8-xor" (xor_pair (G.barrel_shifter ~bits:8));
      items = lazy [ easy 0 500; miter "ripple-vs-kogge8" (adders 8) ];
    }
  else
    {
      warmup = miter "barrel16-xor" (xor_pair (G.barrel_shifter ~bits:16));
      items =
        lazy
          [
            easy 0 12_000;
            easy 1 20_000;
            miter "barrel64-xor" (xor_pair (G.barrel_shifter ~bits:64));
            miter "ripple-vs-kogge96" (adders 96);
          ];
    }

let cec_corpus ~smoke ~seed =
  let eq name (a, b) = cec_item ~equivalent:true name a b in
  let bugs bits count =
    let w = wall ~bits in
    List.mapi
      (fun i m -> cec_item ~equivalent:false (Printf.sprintf "wallace%d-bug%d" bits i) w m)
      (Gen.mutants ~seed:(List.hd (Gen.seeds ~seed 1)) ~count w)
  in
  if smoke then
    {
      warmup = eq "mult3-xor" (xor_pair (mult ~bits:3));
      items = lazy ([ eq "wallace4-xor" (xor_pair (wall ~bits:4)) ] @ bugs 4 1);
    }
  else
    {
      warmup = eq "mult8-xor" (xor_pair (mult ~bits:8));
      items =
        lazy ([
          eq "mult16-xor" (xor_pair (mult ~bits:16));
          eq "mult24-xor" (xor_pair (mult ~bits:24));
          eq "wallace16-xor" (xor_pair (wall ~bits:16));
          eq "mult-vs-wallace6" (mult ~bits:6, wall ~bits:6);
          eq "ripple-vs-kogge64" (G.ripple_adder ~bits:64, G.kogge_stone_adder ~bits:64);
        ]
        @ bugs 8 3);
    }

let corpus ~workload ~smoke ~seed =
  match workload with
  | "certify" -> certify_corpus ~smoke ~seed
  | "large" -> large_corpus ~smoke ~seed
  | "cec" -> cec_corpus ~smoke ~seed
  | w -> invalid_arg ("unknown batch workload " ^ w)

(* --- passes --------------------------------------------------------------- *)

(* Each item starts on a collected heap, as if in a process of its own,
   so the peak memory of a run is that of its largest item. *)
let run_item it =
  Gc.compact ();
  Layer.item := it.name;
  let t0 = Unix.gettimeofday () in
  let v =
    Layer.time "item" (fun () ->
        try it.run () with
        | Out_of_memory | Stack_overflow as e -> raise e
        | e -> Report.Failed (Printexc.to_string e))
  in
  (v, Unix.gettimeofday () -. t0)

(* The per-layer metrics of one traced pass, from its sums. *)
let pass_layers () =
  let s = Layer.sum in
  [
    ("dimacs.parse_s", s "dimacs.parse");
    ("dimacs.mb_per_s", Stat.ratio (s "dimacs.bytes" /. 1e6) (s "dimacs.parse"));
    ("preprocess.s", s "preprocess");
    ("preprocess.vars_eliminated", s "preprocess.vars_eliminated");
    ("preprocess.clauses_removed", s "preprocess.clauses_removed");
    ("equivalence.s", s "equivalence");
    ("recursive_learning.s", s "recursive_learning");
    ("cdcl.s", s "cdcl");
    ("cdcl.conflicts", s "cdcl.conflicts");
    ("cdcl.propagations", s "cdcl.propagations");
    ("cdcl.props_per_s", Stat.ratio (s "cdcl.propagations") (s "cdcl"));
    ("cdcl.minor_words_per_conflict",
     Stat.ratio (s "cdcl.minor_words") (s "cdcl.conflicts"));
    ("proof.steps", s "proof.steps");
    ("proof.trim_s", s "proof.trim");
    ("proof.check_s", s "proof.check");
    ("proof.kept_ratio", Stat.ratio (s "proof.kept_adds") (s "proof.total_adds"));
    ("proof.core_ratio", Stat.ratio (s "proof.core") (s "proof.clauses"));
    ("bench_format.parse_s", s "bench_format.parse");
    ("sweep.simulate_s", s "sweep.simulate");
    ("sweep.refine_s", s "sweep.refine");
    ("sweep.prove_s", s "sweep.prove");
    ("sweep.sat_calls", s "sweep.sat_calls");
    ("sweep.candidates", s "sweep.candidates");
    ("sweep.merges", s "sweep.merges");
    ("sweep.refuted", s "sweep.refuted");
    ("sweep.skipped", s "sweep.skipped");
    ("sweep.merge_ratio", Stat.ratio (s "sweep.merges") (s "sweep.candidates"));
    ("sweep.refinement_rounds", s "sweep.refinement_rounds");
    ("aig.nodes", s "aig.nodes");
    ("aig.fraig_nodes", s "aig.fraig_nodes");
  ]

type pass = {
  traced : bool;
  wall : float;
  latencies : float list;
  verdicts : (string * Report.verdict) list;
  layers : (string * float) list;
}

let run_pass ~traced corpus =
  Layer.on := traced;
  Hashtbl.reset Layer.sums;
  let t0 = Unix.gettimeofday () in
  let results = List.map (fun it -> (it.name, run_item it)) (Lazy.force corpus.items) in
  let wall = Unix.gettimeofday () -. t0 in
  let layers = if traced then pass_layers () else [] in
  Layer.on := false;
  {
    traced;
    wall;
    latencies = List.map (fun (_, (_, dt)) -> dt) results;
    verdicts = List.map (fun (n, (v, _)) -> (n, v)) results;
    layers;
  }

(* Set-up: a fresh process runs the warm-up item once, from spawn to
   exit.  The parent polls on a short timer: blocking in [waitpid]
   left the core idle, and its wake-up added up to 10 ms. *)
let setup_once ~argv =
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      Unix.sleepf 0.0002;
      wait ()
    | _, Unix.WEXITED 0 -> Unix.gettimeofday () -. t0
    | _ -> failwith "the set-up process failed on the warm-up item"
  in
  wait ()

let run ~setup_argv ~seconds ~smoke ~seed ~traced ~workload : Report.t =
  let corpus = corpus ~workload ~smoke ~seed in
  ignore (Lazy.force corpus.items);
  let setups = List.init (if smoke then 1 else 7) (fun _ -> setup_once ~argv:setup_argv) in
  (* untimed: lets lazy set-up and the heap settle before measuring *)
  ignore (run_item corpus.warmup);
  let t0 = Unix.gettimeofday () in
  let rec loop acc =
    let k = List.length acc in
    let elapsed = Unix.gettimeofday () -. t0 in
    let last = match acc with p :: _ -> p.wall | [] -> 0. in
    let enough = k >= (if traced then 2 else 1) in
    if enough && elapsed +. last > seconds then List.rev acc
    else loop (run_pass ~traced:(traced && k mod 2 = 1) corpus :: acc)
  in
  let passes = loop [] in
  let plain = List.filter (fun p -> not p.traced) passes in
  let traced_passes = List.filter (fun p -> p.traced) passes in
  let verdicts = List.concat_map (fun p -> p.verdicts) passes in
  (* Each item's median over the untraced passes: a burst of contention
     on the host slows a few samples of an item, not its median. *)
  let item_s =
    List.mapi
      (fun i _ -> Stat.median (List.map (fun p -> List.nth p.latencies i) plain))
      (List.hd plain).latencies
  in
  let wall_s = List.fold_left ( +. ) 0. item_s in
  let verified =
    List.length
      (List.filteri
         (fun i _ ->
            List.for_all (fun p -> snd (List.nth p.verdicts i) = Report.Pass) plain)
         item_s)
  in
  let wall ps = Stat.median (List.map (fun p -> p.wall) ps) in
  {
    Report.e2e =
      [
        ("wall_s", wall_s);
        ("setup_s", Stat.median setups);
        ("peak_rss_mb", Report.peak_rss_mb "self");
        ("p50_ms", 1000. *. Stat.median item_s);
        ("ok_qps", float_of_int verified /. wall_s);
      ];
    layers =
      (if traced then
         List.map
           (fun name ->
              (name, Stat.median (List.map (fun p -> List.assoc name p.layers) traced_passes)))
           (List.map fst (List.hd traced_passes).layers)
         @ [
             ("trace.pass_s", wall traced_passes);
             ("trace.overhead", Stat.ratio (wall traced_passes) (wall plain) -. 1.);
           ]
       else []);
    attempted = List.length verdicts;
    failed =
      List.length
        (List.filter (function _, Report.Failed _ -> true | _ -> false) verdicts);
    wrong =
      List.filter_map
        (function n, Report.Wrong why -> Some (n ^ ": " ^ why) | _ -> None)
        verdicts;
  }
