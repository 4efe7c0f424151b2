(* Experiment E31: per-instance auto-tuning vs the default configuration.

   Two variants of the same solver run interleaved (one rep = both
   variants back to back, so machine drift hits them equally):

     default   Solver.solve with the stock configuration and no
               preprocessing decision — the path a caller gets without
               opting in to anything
     auto      Solver.Auto.solve: extract the docs/TUNING.md feature
               set, apply the decision table, run the chosen policy

   Families: CEC miters (multiplier and XOR-rewrite shapes, the
   gate-like profile the P2 rule targets), pigeonhole (dense,
   structureless UNSAT) and random 3-SAT at the phase transition (the
   P3 rule's territory).  Auto-tuning must never change an
   answer: every SAT model from either variant is evaluated against
   the formula, and every UNSAT instance is re-solved with proof
   logging and its refutation forward-checked.

   The honesty metric is extraction overhead: the time Autotune.extract
   spends measuring, as a fraction of the auto variant's total solve
   time, targeted below 2% (docs/TUNING.md "Cost contract").

   Flags (read from the bench command line, after "--"):
     --smoke   tiny instance sizes: asserts the harness runs end to end
     --json    also write BENCH_autotune.json in the current dir *)

module T = Sat.Types
module S = Sat.Solver
module A = Sat.Autotune

type row = {
  name : string;
  family : string;
  answer : string;
  default_s : float;
  auto_s : float;
  extraction_s : float;  (* feature-extraction share of the auto time *)
  rules : string;        (* fired decision-table rule ids, auto variant *)
}

let smoke () = Array.exists (( = ) "--smoke") Sys.argv
let json () = Array.exists (( = ) "--json") Sys.argv

let validate name f (outcome : T.outcome) =
  match outcome with
  | T.Sat m ->
    if not (Cnf.Formula.eval (fun v -> m.(v)) f) then
      failwith (name ^ ": model violates the formula")
  | T.Unsat | T.Unsat_assuming _ -> ()
  | T.Unknown why -> failwith (name ^ ": inconclusive (" ^ why ^ ")")

let certify name f =
  match Sat.Proof.solve_certified f with
  | (T.Unsat | T.Unsat_assuming _), Sat.Proof.Valid_refutation -> ()
  | (T.Unsat | T.Unsat_assuming _), _ ->
    failwith (name ^ ": refutation failed the forward check")
  | _ -> failwith (name ^ ": certified re-solve disagrees with UNSAT")

(* Interleaved A/B, best-of-[reps] per variant.  Answers must agree
   between the variants; the winning auto rep also reports its
   extraction time and fired rules. *)
let run_case ~reps ~family name mk_formula =
  let best_default = ref infinity and best_auto = ref infinity in
  let extraction = ref 0.0 and rules = ref "" and answer = ref "?" in
  let record label a =
    if !answer = "?" then answer := a
    else if a <> !answer then
      failwith
        (Printf.sprintf "%s: %s answers %s, other variant %s" name label a
           !answer)
  in
  for _ = 1 to reps do
    let f = mk_formula () in
    let r, dt = Util.time (fun () -> S.solve f) in
    validate (name ^ "/default") f r.S.outcome;
    record "default" (Util.outcome_label r.S.outcome);
    if dt < !best_default then best_default := dt;
    let f = mk_formula () in
    let (plan, r), dt = Util.time (fun () -> S.Auto.solve f) in
    validate (name ^ "/auto") f r.S.outcome;
    record "auto" (Util.outcome_label r.S.outcome);
    if dt < !best_auto then begin
      best_auto := dt;
      extraction := plan.S.Auto.features.A.extraction_time_s;
      rules := String.concat " " plan.S.Auto.policy.A.reason
    end
  done;
  (* answer preservation is part of the contract: certify the UNSAT
     verdicts through the proof checker, at every size we run *)
  if !answer = "UNSAT" || !answer = "UNSAT*" then certify name (mk_formula ());
  {
    name;
    family;
    answer = !answer;
    default_s = !best_default;
    auto_s = !best_auto;
    extraction_s = !extraction;
    rules = !rules;
  }

(* --- instance families --------------------------------------------------- *)

let miter bits () =
  let f, _ =
    Circuit.Miter.to_cnf
      (Circuit.Generators.multiplier ~bits)
      (Circuit.Generators.wallace_multiplier ~bits)
  in
  f

let miter_xor bits () =
  let w = Circuit.Generators.wallace_multiplier ~bits in
  let f, _ =
    Circuit.Miter.to_cnf w
      (Circuit.Transform.rewrite_xor
         (Circuit.Generators.wallace_multiplier ~bits))
  in
  f

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | l ->
    let n = List.length l in
    let a = Array.of_list l in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let write_json path ~mode rows medians overhead =
  let oc = open_out path in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"satreda-bench\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"version\": %d,\n" Sat.Metrics.schema_version);
  Buffer.add_string b "  \"experiment\": \"E31\",\n";
  Buffer.add_string b (Printf.sprintf "  \"mode\": \"%s\",\n" mode);
  Buffer.add_string b "  \"auto_vs_default\": [\n";
  List.iteri
    (fun i r ->
       Buffer.add_string b
         (Printf.sprintf
            "    {\"name\": \"%s\", \"family\": \"%s\", \"answer\": \"%s\", \
             \"default_s\": %.6f, \"auto_s\": %.6f, \"speedup\": %.3f, \
             \"extraction_s\": %.6f, \"rules\": \"%s\"}%s\n"
            r.name r.family r.answer r.default_s r.auto_s
            (r.default_s /. r.auto_s) r.extraction_s r.rules
            (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"median_speedup_by_family\": {\n";
  List.iteri
    (fun i (fam, m) ->
       Buffer.add_string b
         (Printf.sprintf "    \"%s\": %.3f%s\n" fam m
            (if i = List.length medians - 1 then "" else ",")))
    medians;
  Buffer.add_string b "  },\n";
  Buffer.add_string b
    (Printf.sprintf "  \"extraction_overhead_frac\": %.5f,\n" overhead);
  Buffer.add_string b "  \"extraction_overhead_target\": 0.02,\n";
  Buffer.add_string b "  \"all_answers_validated\": true\n}\n";
  output_string oc (Buffer.contents b);
  close_out oc

let e31 () =
  let smoke = smoke () in
  let mode = if smoke then "smoke" else "full" in
  Util.header "E31 per-instance auto-tuning (features + decision table)"
    "structure-aware policy selection vs the stock configuration; \
     interleaved A/B, every answer validated or certified";
  let reps = if smoke then 1 else 5 in
  let rows = ref [] in
  let case ~family name mk = rows := run_case ~reps ~family name mk :: !rows in
  List.iter
    (fun bits -> case ~family:"miter" (Printf.sprintf "miter-mult%d" bits)
        (miter bits))
    (if smoke then [ 2 ] else [ 4; 5 ]);
  List.iter
    (fun bits ->
       case ~family:"miter"
         (Printf.sprintf "miter-wall%d-xor" bits)
         (miter_xor bits))
    (if smoke then [] else [ 5; 6 ]);
  (if smoke then case ~family:"php" "php(5,4)" (fun () -> Util.pigeonhole 5 4)
   else begin
     case ~family:"php" "php(7,6)" (fun () -> Util.pigeonhole 7 6);
     case ~family:"php" "php(8,7)" (fun () -> Util.pigeonhole 8 7)
   end);
  let nvars = if smoke then 60 else 180 in
  List.iter
    (fun seed ->
       case ~family:"3sat"
         (Printf.sprintf "3sat-%d@4.26" seed)
         (fun () -> Util.random_3sat ~seed ~nvars ~ratio:4.26))
    (if smoke then [ 3 ] else [ 3; 5; 7 ]);
  let rows = List.rev !rows in
  Util.row "%-16s %-6s %-6s %9s %9s %8s %9s  %s@." "instance" "family" "ans"
    "default" "auto" "speedup" "extract" "rules";
  Util.line ();
  List.iter
    (fun r ->
       Util.row "%-16s %-6s %-6s %8.3fs %8.3fs %7.2fx %8.5fs  %s@." r.name
         r.family r.answer r.default_s r.auto_s (r.default_s /. r.auto_s)
         r.extraction_s r.rules)
    rows;
  let medians =
    List.map
      (fun fam ->
         ( fam,
           median
             (List.filter_map
                (fun r ->
                   if r.family = fam then Some (r.default_s /. r.auto_s)
                   else None)
                rows) ))
      [ "miter"; "php"; "3sat" ]
  in
  List.iter
    (fun (fam, m) -> Util.row "median speedup %-6s %.2fx@." fam m)
    medians;
  let overhead =
    let ex = List.fold_left (fun a r -> a +. r.extraction_s) 0.0 rows
    and tot = List.fold_left (fun a r -> a +. r.auto_s) 0.0 rows in
    if tot > 0.0 then ex /. tot else 0.0
  in
  Util.row "extraction overhead: %.2f%% of auto solve time (target < 2%%)@."
    (100.0 *. overhead);
  if json () then begin
    write_json "BENCH_autotune.json" ~mode rows medians overhead;
    Util.row "@.wrote BENCH_autotune.json (%s mode)@." mode
  end;
  Util.row
    "@.default is Solver.solve with the stock configuration; auto extracts \
     the docs/TUNING.md features and applies the decision table.  Best of \
     %d interleaved run(s) per variant; every SAT model is evaluated \
     against the formula and every UNSAT verdict is re-certified through \
     the proof checker.@."
    reps
