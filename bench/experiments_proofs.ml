(* Experiment E30: proof logging overhead and backward trimming.

   Every instance is solved twice with the full pipeline (bounded
   variable elimination on), interleaved: once with proof
   logging off (the production configuration) and once with the DRAT
   stream on.  The UNSAT stream is then backward-trimmed into an LRAT
   certificate, which is re-validated by the independent LRAT replayer.
   Reported per instance:

     overhead     proof-logging solve time / plain solve time
     trim ratio   additions kept by the backward trim / total additions
     check/solve  trim+validate time / proof-logging solve time
     core         original clauses surviving in the unsat core

   Families: CEC miters (known-UNSAT equivalences) and pigeonhole.

   Flags (read from the bench command line, after "--"):
     --smoke   tiny instance sizes: asserts the harness runs end to end
     --json    also write BENCH_proofs.json in the current dir *)

module T = Sat.Types
module S = Sat.Solver
module P = Sat.Proof

type row = {
  name : string;
  family : string;
  plain_s : float;
  proof_s : float;
  steps : int;    (* DRAT stream length, deletions included *)
  adds : int;     (* additions in the stream *)
  kept : int;     (* additions surviving the backward trim *)
  core : int;     (* original clauses in the unsat core *)
  nclauses : int; (* original clause count *)
  trim_s : float; (* trim + LRAT re-validation time *)
}

let smoke () = Array.exists (( = ) "--smoke") Sys.argv
let json () = Array.exists (( = ) "--json") Sys.argv

let proof_config = { T.default with T.proof_logging = true }

let solve config f = S.solve ~engine:(S.Cdcl config) ~pipeline:S.full_pipeline f

let run_case ~reps ~family name mk =
  let best_plain = ref infinity
  and best_proof = ref infinity
  and best_trim = ref infinity in
  let steps = ref 0 and adds = ref 0 and kept = ref 0 and core = ref 0 in
  let nclauses = ref 0 in
  for _ = 1 to reps do
    let f = mk () in
    nclauses := Cnf.Formula.nclauses f;
    let r_plain, dt_plain = Util.time (fun () -> solve T.default f) in
    (match r_plain.S.outcome with
     | T.Unsat | T.Unsat_assuming _ -> ()
     | o -> failwith (name ^ ": expected UNSAT, got " ^ Util.outcome_label o));
    let r_proof, dt_proof = Util.time (fun () -> solve proof_config f) in
    let proof =
      match r_proof.S.proof with
      | Some p -> p
      | None -> failwith (name ^ ": proof-logging run produced no proof")
    in
    let (kept_adds, core_ids), dt_trim =
      Util.time (fun () ->
          match P.trim f proof with
          | P.Trimmed { lines; core; kept_adds; total_adds = _ } ->
            (match P.check_lrat f lines with
             | Ok () -> (kept_adds, core)
             | Error e -> failwith (name ^ ": LRAT rejected: " ^ e))
          | P.Not_refutation -> failwith (name ^ ": proof not a refutation")
          | P.Trim_invalid i ->
            failwith (Printf.sprintf "%s: invalid step %d" name i))
    in
    steps := List.length proof;
    adds :=
      List.length (List.filter (function P.Add _ -> true | _ -> false) proof);
    kept := kept_adds;
    core := List.length core_ids;
    if dt_plain < !best_plain then best_plain := dt_plain;
    if dt_proof < !best_proof then best_proof := dt_proof;
    if dt_trim < !best_trim then best_trim := dt_trim
  done;
  {
    name;
    family;
    plain_s = !best_plain;
    proof_s = !best_proof;
    steps = !steps;
    adds = !adds;
    kept = !kept;
    core = !core;
    nclauses = !nclauses;
    trim_s = !best_trim;
  }

let miter bits () =
  let f, _ =
    Circuit.Miter.to_cnf
      (Circuit.Generators.multiplier ~bits)
      (Circuit.Generators.wallace_multiplier ~bits)
  in
  f

let adder_miter bits () =
  let f, _ =
    Circuit.Miter.to_cnf
      (Circuit.Generators.ripple_adder ~bits)
      (Circuit.Generators.kogge_stone_adder ~bits)
  in
  f

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let write_json path ~mode rows =
  let oc = open_out path in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"satreda-bench\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"version\": %d,\n" Sat.Metrics.schema_version);
  Buffer.add_string b "  \"experiment\": \"E30\",\n";
  Buffer.add_string b (Printf.sprintf "  \"mode\": \"%s\",\n" mode);
  Buffer.add_string b "  \"proofs\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": \"%s\", \"family\": \"%s\", \"plain_s\": %.6f, \
            \"proof_s\": %.6f, \"logging_overhead\": %.3f, \
            \"drat_steps\": %d, \"additions\": %d, \"kept_additions\": %d, \
            \"trim_ratio\": %.3f, \"core_clauses\": %d, \"nclauses\": %d, \
            \"trim_s\": %.6f, \"check_vs_solve\": %.3f}%s\n"
           r.name r.family r.plain_s r.proof_s (r.proof_s /. r.plain_s)
           r.steps r.adds r.kept (ratio r.kept r.adds) r.core r.nclauses
           r.trim_s (r.trim_s /. r.proof_s)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  output_string oc (Buffer.contents b);
  close_out oc

let e30 () =
  let smoke = smoke () in
  let mode = if smoke then "smoke" else "full" in
  Util.header "E30 proof logging overhead + backward trimming"
    "full pipeline (BVE) with DRAT logging on vs off; \
     backward trim into LRAT, re-validated independently";
  let reps = if smoke then 1 else 5 in
  let rows = ref [] in
  let case ~family name mk = rows := run_case ~reps ~family name mk :: !rows in
  List.iter
    (fun bits ->
      case ~family:"miter" (Printf.sprintf "miter-mult%d" bits) (miter bits))
    (if smoke then [ 2 ] else [ 3; 4 ]);
  List.iter
    (fun bits ->
      case ~family:"miter"
        (Printf.sprintf "miter-add%d" bits)
        (adder_miter bits))
    (if smoke then [ 3 ] else [ 8; 16 ]);
  (if smoke then case ~family:"php" "php(5,4)" (fun () -> Util.pigeonhole 5 4)
   else begin
     case ~family:"php" "php(7,6)" (fun () -> Util.pigeonhole 7 6);
     case ~family:"php" "php(8,7)" (fun () -> Util.pigeonhole 8 7)
   end);
  let rows = List.rev !rows in
  Util.row "%-14s %-6s %9s %9s %8s %8s %7s %7s %9s@." "instance" "family"
    "plain" "proof" "ovhd" "steps" "trim%" "core" "check";
  Util.line ();
  List.iter
    (fun r ->
      Util.row "%-14s %-6s %8.3fs %8.3fs %7.2fx %8d %6.1f%% %7d %8.3fs@."
        r.name r.family r.plain_s r.proof_s (r.proof_s /. r.plain_s) r.steps
        (100. *. ratio r.kept r.adds)
        r.core r.trim_s)
    rows;
  if json () then begin
    write_json "BENCH_proofs.json" ~mode rows;
    Util.row "@.wrote BENCH_proofs.json (%s mode)@." mode
  end;
  Util.row
    "@.plain and proof-logging runs interleaved, best of %d rep(s); every \
     refutation is backward-trimmed and its LRAT certificate re-validated. \
     trim%% is the share of logged additions the trimmed certificate keeps; \
     core counts original clauses the refutation depends on.@."
    reps
