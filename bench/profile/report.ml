(* What one workload run reports. *)

type verdict = Pass | Failed of string | Wrong of string

type t = {
  e2e : (string * float) list;
  layers : (string * float) list;  (* filled by traced runs only *)
  attempted : int;
  failed : int;  (* operations that gave no verdict where one was due *)
  wrong : string list;  (* "item: reason", one per wrong answer *)
}

(* Every per-layer metric the harness measures.  A workload that leaves
   a layer idle reports 0 for it. *)
let layer_names =
  [
    "dimacs.parse_s"; "dimacs.mb_per_s";
    "preprocess.s"; "preprocess.vars_eliminated"; "preprocess.clauses_removed";
    "equivalence.s"; "recursive_learning.s";
    "cdcl.s"; "cdcl.conflicts"; "cdcl.propagations"; "cdcl.props_per_s";
    "cdcl.minor_words_per_conflict";
    "proof.steps"; "proof.trim_s"; "proof.check_s"; "proof.kept_ratio";
    "proof.core_ratio";
    "bench_format.parse_s";
    "sweep.simulate_s"; "sweep.refine_s"; "sweep.prove_s"; "sweep.sat_calls";
    "sweep.candidates"; "sweep.merges"; "sweep.refuted"; "sweep.skipped";
    "sweep.merge_ratio"; "sweep.refinement_rounds"; "aig.nodes";
    "aig.fraig_nodes";
    "protocol.decode_us"; "protocol.encode_us"; "fhash.us";
    "cache.hit_ratio"; "cache.warm_ratio"; "cache.results_evicted";
    "cache.sessions_evicted";
    "service.hit_ms.p50"; "service.warm_ms.p50"; "service.cold_ms.p50";
    "server.wait_ms.p99"; "scheduler.peak_queue_depth"; "scheduler.overloaded";
    "scheduler.timeouts"; "satd.p98_ms"; "satd.max_ok_qps";
    "loadgen.lag_ms.p99"; "trace.pass_s"; "trace.overhead";
  ]

let e2e_names =
  [ "wall_s"; "setup_s"; "peak_rss_mb"; "p50_ms"; "ok_qps" ]

(* VmHWM of a process, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = find () in
  close_in ic;
  float_of_int kb /. 1024.
