(* Experiment E26: preprocessing ablation — bounded variable elimination.

   Two variants of the same solver run interleaved (one rep = both
   variants back to back, so machine drift hits them equally):

     base      full pipeline with elimination off
     bve       full pipeline, bounded variable elimination on (default)

   Families: CEC miters (array vs Wallace multiplier), pigeonhole,
   ATPG test-generation instances, and random 3-SAT at the phase
   transition.  Every SAT model is validated against the *original*
   formula after model reconstruction through the elimination stack,
   and the UNSAT anchors are re-certified through the proof checker
   with elimination enabled (its additions and deletions land in the
   DRAT stream; see docs/PROOFS.md).

   Flags (read from the bench command line, after "--"):
     --smoke   tiny instance sizes: asserts the harness runs end to end
     --json    also write BENCH_preprocessing.json in the current dir *)

module T = Sat.Types
module S = Sat.Solver

type row = {
  name : string;
  family : string;
  answer : string;
  base_s : float;
  bve_s : float;
  eliminated : int;       (* vars removed by elimination, bve variant *)
  clauses_removed : int;  (* clause count change from elimination *)
}

let smoke () = Array.exists (( = ) "--smoke") Sys.argv
let json () = Array.exists (( = ) "--json") Sys.argv

let variants =
  [
    ("base",
     fun f -> S.solve ~pipeline:{ S.full_pipeline with S.elim = false } f);
    ("bve", fun f -> S.solve ~pipeline:S.full_pipeline f);
  ]

let validate name f (r : S.report) =
  match r.S.outcome with
  | T.Sat m ->
    if not (Cnf.Formula.eval (fun v -> m.(v)) f) then
      failwith (name ^ ": reconstructed model violates the original formula")
  | T.Unsat | T.Unsat_assuming _ -> ()
  | T.Unknown why -> failwith (name ^ ": inconclusive (" ^ why ^ ")")

(* Interleaved A/B, best-of-[reps] per variant; answers must agree
   across variants and SAT models must check out post-reconstruction. *)
let run_case ~reps ~family name mk_formula =
  let n = List.length variants in
  let best = Array.make n infinity in
  let answer = ref "?" and eliminated = ref 0 and clauses_removed = ref 0 in
  for _ = 1 to reps do
    List.iteri
      (fun i (vname, solve) ->
         let f = mk_formula () in
         let r, dt = Util.time (fun () -> solve f) in
         validate (name ^ "/" ^ vname) f r;
         let a = Util.outcome_label r.S.outcome in
         if !answer = "?" then answer := a
         else if a <> !answer then
           failwith
             (Printf.sprintf "%s: %s answers %s, others %s" name vname a
                !answer);
         if vname = "bve" then begin
           match r.S.preprocess_stats with
           | Some p ->
             eliminated := p.Sat.Preprocess.eliminated;
             clauses_removed := p.Sat.Preprocess.elim_clauses_removed
           | None -> ()
         end;
         if dt < best.(i) then best.(i) <- dt)
      variants
  done;
  {
    name;
    family;
    answer = !answer;
    base_s = best.(0);
    bve_s = best.(1);
    eliminated = !eliminated;
    clauses_removed = !clauses_removed;
  }

(* --- instance families --------------------------------------------------- *)

let miter bits () =
  let f, _ =
    Circuit.Miter.to_cnf
      (Circuit.Generators.multiplier ~bits)
      (Circuit.Generators.wallace_multiplier ~bits)
  in
  f

(* circuit vs its XOR-decomposed rewrite: the synthesis-redundancy CEC
   shape, full of single-use Tseitin definitions elimination feeds on *)
let miter_xor bits () =
  let w = Circuit.Generators.wallace_multiplier ~bits in
  let f, _ =
    Circuit.Miter.to_cnf w
      (Circuit.Transform.rewrite_xor (Circuit.Generators.wallace_multiplier ~bits))
  in
  f

(* fault test-generation CNF: instance circuit + activation/observation
   objectives as units, the Figure 1 construction *)
let atpg_cnf c fault =
  let inst, objectives = Eda.Atpg.instance c fault in
  let enc = Circuit.Encode.encode inst in
  List.iter
    (fun (node, v) ->
       Circuit.Encode.assert_output enc.Circuit.Encode.formula
         (enc.Circuit.Encode.lit_of_node node)
         v)
    objectives;
  enc.Circuit.Encode.formula

let atpg_cases ~smoke =
  let c =
    if smoke then Circuit.Generators.c17 ()
    else Circuit.Generators.multiplier ~bits:4
  in
  let faults = Eda.Atpg.fault_list c in
  let total = List.length faults in
  let picks = if smoke then [ 0 ] else [ 0; total / 3; 2 * total / 3 ] in
  List.map
    (fun i ->
       let fault = List.nth faults i in
       ( Printf.sprintf "atpg-%s-f%d" (if smoke then "c17" else "mult4") i,
         fun () -> atpg_cnf c fault ))
    picks

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | l ->
    let n = List.length l in
    let a = Array.of_list l in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let write_json path ~mode rows certified medians =
  let oc = open_out path in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"satreda-bench\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"version\": %d,\n" Sat.Metrics.schema_version);
  Buffer.add_string b "  \"experiment\": \"E26\",\n";
  Buffer.add_string b (Printf.sprintf "  \"mode\": \"%s\",\n" mode);
  Buffer.add_string b "  \"ablation\": [\n";
  List.iteri
    (fun i r ->
       Buffer.add_string b
         (Printf.sprintf
            "    {\"name\": \"%s\", \"family\": \"%s\", \"answer\": \"%s\", \
             \"base_s\": %.6f, \"bve_s\": %.6f, \"speedup_bve\": %.3f, \
             \"vars_eliminated\": %d, \"clauses_removed\": %d}%s\n"
            r.name r.family r.answer r.base_s r.bve_s
            (r.base_s /. r.bve_s) r.eliminated r.clauses_removed
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
  Buffer.add_string b "  \"unsat_certified_with_elim\": [";
  Buffer.add_string b
    (String.concat ", " (List.map (Printf.sprintf "\"%s\"") certified));
  Buffer.add_string b "]\n}\n";
  output_string oc (Buffer.contents b);
  close_out oc

let e26 () =
  let smoke = smoke () in
  let mode = if smoke then "smoke" else "full" in
  Util.header "E26 preprocessing ablation (variable elimination)"
    "SatELite-style bounded elimination ahead of search; interleaved A/B \
     against the pre-elimination pipeline";
  let reps = if smoke then 1 else 5 in
  let rows = ref [] in
  let case ~family name mk = rows := run_case ~reps ~family name mk :: !rows in
  (* CEC miters: the target family for the elimination win *)
  List.iter
    (fun bits -> case ~family:"miter" (Printf.sprintf "miter-mult%d" bits)
        (miter bits))
    (if smoke then [ 2 ] else [ 4; 5; 6 ]);
  List.iter
    (fun bits ->
       case ~family:"miter"
         (Printf.sprintf "miter-wall%d-xor" bits)
         (miter_xor bits))
    (if smoke then [] else [ 5; 6; 7 ]);
  (* pigeonhole: dense occurrence lists, elimination mostly declines *)
  (if smoke then case ~family:"php" "php(5,4)" (fun () -> Util.pigeonhole 5 4)
   else case ~family:"php" "php(8,7)" (fun () -> Util.pigeonhole 8 7));
  (* ATPG test generation (Figure 1 construction) *)
  List.iter
    (fun (name, mk) -> case ~family:"atpg" name mk)
    (atpg_cases ~smoke);
  (* random 3-SAT: no functional structure, elimination should be a wash *)
  let nvars = if smoke then 60 else 200 in
  List.iter
    (fun seed ->
       case ~family:"3sat"
         (Printf.sprintf "3sat-%d@4.26" seed)
         (fun () -> Util.random_3sat ~seed ~nvars ~ratio:4.26))
    (if smoke then [ 3 ] else [ 3; 5 ]);
  let rows = List.rev !rows in
  Util.row "%-16s %-6s %-6s %9s %9s %8s %6s@." "instance" "family" "ans"
    "base" "bve" "speedup" "elim";
  Util.line ();
  List.iter
    (fun r ->
       Util.row "%-16s %-6s %-6s %8.3fs %8.3fs %7.2fx %6d@." r.name
         r.family r.answer r.base_s r.bve_s (r.base_s /. r.bve_s) r.eliminated)
    rows;
  let medians =
    List.map
      (fun fam ->
         ( fam,
           median
             (List.filter_map
                (fun r ->
                   if r.family = fam then Some (r.base_s /. r.bve_s) else None)
                rows) ))
      [ "miter"; "php"; "atpg"; "3sat" ]
  in
  List.iter
    (fun (fam, m) -> Util.row "median speedup %-6s %.2fx@." fam m)
    medians;
  (* elimination emits DRAT: the UNSAT anchors certify end to end
     through the full pipeline, BVE included *)
  let certified =
    List.filter_map
      (fun (name, f) ->
         let r =
           S.solve
             ~engine:(S.Cdcl { T.default with T.proof_logging = true })
             ~pipeline:S.full_pipeline f
         in
         match r.S.outcome, r.S.proof with
         | (T.Unsat | T.Unsat_assuming _), Some proof ->
           (match Sat.Proof.trim f proof with
            | Sat.Proof.Trimmed _ -> Some name
            | _ -> failwith (name ^ ": UNSAT refutation failed to trim"))
         | _ -> failwith (name ^ ": UNSAT refutation failed to certify"))
      [
        ("php(5,4)", Util.pigeonhole 5 4);
        ("miter-mult3", miter 3 ());
      ]
  in
  Util.row "UNSAT certified with elimination: %s@."
    (String.concat ", " certified);
  if json () then begin
    write_json "BENCH_preprocessing.json" ~mode rows certified medians;
    Util.row "@.wrote BENCH_preprocessing.json (%s mode)@." mode
  end;
  Util.row
    "@.base is the pre-elimination pipeline (elim off); bve adds bounded \
     variable elimination.  Best of %d interleaved run(s) per variant; \
     every SAT model is validated against the original formula after \
     reconstruction through the elimination stack.@."
    reps
