(* End-to-end CLI contract: SAT-competition exit codes and the
   --metrics JSON surface, exercised through the real satsolve binary.
   The binary and the example files are dune deps of the test runner. *)

let satsolve = Filename.concat (Filename.concat ".." "bin") "satsolve.exe"
let dratcheck = Filename.concat (Filename.concat ".." "bin") "dratcheck.exe"
let bench_gen = Filename.concat (Filename.concat ".." "bin") "bench_gen.exe"
let example f = Filename.concat (Filename.concat ".." "examples") f
let tool name = Filename.concat (Filename.concat ".." "bin") (name ^ ".exe")

let run_exe exe args =
  Sys.command (Filename.quote_command exe args ~stdout:Filename.null)

let run args = run_exe satsolve args

let exit_codes () =
  Alcotest.(check int) "UNSAT exits 20" 20 (run [ example "php43.cnf" ]);
  Alcotest.(check int) "SAT exits 10" 10 (run [ example "color5.cnf" ]);
  (* local search cannot refute: UNKNOWN exits 0 *)
  Alcotest.(check int) "UNKNOWN exits 0" 0
    (run [ example "php43.cnf"; "--engine"; "walksat" ]);
  Alcotest.(check int) "bad flag exits like cmdliner" 124
    (run [ example "php43.cnf"; "--no-such-flag" ])

let certify_exit_codes () =
  Alcotest.(check int) "checked UNSAT exits 20" 20
    (run [ example "php43.cnf"; "--check" ]);
  Alcotest.(check int) "checked SAT exits 10" 10
    (run [ example "color5.cnf"; "--check" ])

let metrics_schema () =
  let path = Filename.temp_file "satsolve_metrics" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Alcotest.(check int) "solve exits 20" 20
         (run [ example "php43.cnf"; "--metrics"; path ]);
       let ic = open_in_bin path in
       let text = really_input_string ic (in_channel_length ic) in
       close_in ic;
       let j =
         match Sat.Json.parse text with
         | Ok j -> j
         | Error e -> Alcotest.fail ("metrics file is not valid JSON: " ^ e)
       in
       let member k =
         match Sat.Json.member k j with
         | Some v -> v
         | None -> Alcotest.fail ("missing field " ^ k)
       in
       Alcotest.(check string) "schema" Sat.Metrics.schema_name
         (Option.get (Sat.Json.to_string_opt (member "schema")));
       Alcotest.(check int) "version" Sat.Metrics.schema_version
         (Option.get (Sat.Json.to_int (member "version")));
       Alcotest.(check string) "tool" "satsolve"
         (Option.get (Sat.Json.to_string_opt (member "tool")));
       (* restoring through of_json proves the snapshot is schema-complete *)
       (match Sat.Metrics.of_json j with
        | Ok m ->
          let d =
            Sat.Metrics.counter_value (Sat.Metrics.counter m "solver/decisions")
          in
          Alcotest.(check bool) "decisions recorded" true (d > 0)
        | Error e -> Alcotest.fail ("of_json refused the snapshot: " ^ e)))

let trace_schema () =
  let path = Filename.temp_file "satsolve_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Alcotest.(check int) "solve exits 20" 20
         (run [ example "php43.cnf"; "--trace"; path ]);
       let ic = open_in path in
       let lines = ref [] in
       (try
          while true do
            lines := input_line ic :: !lines
          done
        with End_of_file -> close_in ic);
       let lines = List.rev !lines in
       Alcotest.(check bool) "has header + events" true (List.length lines > 1);
       List.iteri
         (fun i line ->
            match Sat.Json.parse line with
            | Error e ->
              Alcotest.fail (Printf.sprintf "line %d invalid: %s" i e)
            | Ok j ->
              if i = 0 then
                Alcotest.(check string) "header schema" Sat.Trace.schema_name
                  (Option.get
                     (Sat.Json.to_string_opt
                        (Option.get (Sat.Json.member "schema" j))))
              else (
                ignore (Option.get (Sat.Json.member "t" j));
                ignore (Option.get (Sat.Json.member "ev" j))))
         lines)

let in_tmp name f =
  let path = Filename.temp_file "satreda_cli" name in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let proof_check_core_flow () =
  (* solve → DRAT → trim/check → LRAT + core, all through the binaries *)
  in_tmp ".drat" (fun proof ->
      in_tmp ".lrat" (fun lrat ->
          in_tmp ".core" (fun core ->
              Alcotest.(check int) "--proof --check certifies UNSAT" 20
                (run
                   [ example "php43.cnf"; "--preprocess"; "--proof"; proof;
                     "--check" ]);
              Alcotest.(check int) "dratcheck verifies and exports" 0
                (run_exe dratcheck
                   [ example "php43.cnf"; proof; "--lrat"; lrat; "--core";
                     core; "--stats" ]);
              Alcotest.(check int) "forward mode agrees" 0
                (run_exe dratcheck [ example "php43.cnf"; proof; "--forward" ]);
              Alcotest.(check int) "exported LRAT re-validates" 0
                (run_exe dratcheck
                   [ example "php43.cnf"; "--check-lrat"; lrat ]);
              (* the exported core is a DIMACS formula and still UNSAT *)
              Alcotest.(check int) "core is UNSAT" 20 (run [ core ]))))

let proof_of_sat_is_derivation () =
  in_tmp ".drat" (fun proof ->
      Alcotest.(check int) "SAT still exits 10" 10
        (run [ example "color5.cnf"; "--preprocess"; "--proof"; proof ]);
      Alcotest.(check int) "no refutation to trim" 1
        (run_exe dratcheck [ example "color5.cnf"; proof ]))

let dratcheck_rejects_garbage () =
  in_tmp ".cnf" (fun cnf ->
      in_tmp ".drat" (fun proof ->
          let write path text =
            let oc = open_out path in
            output_string oc text;
            close_out oc
          in
          write cnf "p cnf 2 2\n1 2 0\n-1 2 0\n";
          (* [1] is not an implicate: forward checking must reject it *)
          write proof "1 0\n0\n";
          Alcotest.(check int) "bogus step rejected" 2
            (run_exe dratcheck [ cnf; proof; "--forward" ]);
          Alcotest.(check int) "missing file is an I/O error" 3
            (run_exe dratcheck [ cnf; proof ^ ".nope" ])))

let miter_corpus_flow () =
  (* the CI certification loop in miniature: generate an equivalence
     miter, solve with the full pipeline, proof-check the verdict *)
  in_tmp ".cnf" (fun cnf ->
      in_tmp ".drat" (fun proof ->
          Alcotest.(check int) "miter CNF generated" 0
            (run_exe bench_gen
               [ "ripple"; "--bits"; "3"; "--miter-with"; "kogge"; "--cnf";
                 "-o"; cnf ]);
          Alcotest.(check int) "equivalence certified" 20
            (run
               [ cnf; "--preprocess"; "--proof"; proof; "--check" ]);
          Alcotest.(check int) "dratcheck agrees" 0
            (run_exe dratcheck [ cnf; proof ])))

(* exit code and stdout lines of one satsolve run *)
let run_lines ?(exe = satsolve) args =
  in_tmp ".out" (fun out ->
      let code = Sys.command (Filename.quote_command exe args ~stdout:out) in
      let ic = open_in_bin out in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (code, String.split_on_char '\n' text))

let timeout_any_engine () =
  (* php(10,9) keeps DPLL busy for seconds, and WalkSAT's default flip
     budget on a 20,000-variable 3-SAT outlasts the limit too *)
  let cases =
    [ ("dpll", Test_session.php 10 9);
      ("walksat", Test_cube.random_3cnf ~seed:1 ~nvars:20_000 ~ratio:4.2) ]
  in
  List.iter
    (fun (engine, f) ->
       in_tmp ".cnf" (fun cnf ->
           Cnf.Dimacs.write_file cnf f;
           let code, lines =
             run_lines [ cnf; "--engine"; engine; "--timeout"; "0.5" ]
           in
           Alcotest.(check int) (engine ^ " UNKNOWN exits 0") 0 code;
           Alcotest.(check bool) (engine ^ " reports the timeout") true
             (List.mem "s UNKNOWN (timeout)" lines)))
    cases;
  Alcotest.(check int) "--check combines with --timeout" 20
    (run [ example "php43.cnf"; "--check"; "--timeout"; "30" ])

let timeout_stops_preprocessing () =
  (* bounded variable elimination alone takes most of a second on this
     formula; the deadline cuts it short, so the whole run answers
     well inside 0.6 s *)
  in_tmp ".cnf" (fun cnf ->
      Cnf.Dimacs.write_file cnf
        (Test_cube.random_3cnf ~seed:1 ~nvars:20_000 ~ratio:4.2);
      let limit = Th.within 0.6 in
      let code, lines =
        run_lines [ cnf; "--preprocess"; "--timeout"; "0.1" ]
      in
      Alcotest.(check bool) "answers before the slack runs out" false
        (Sat.Monotime.past (Some limit));
      Alcotest.(check int) "UNKNOWN exits 0" 0 code;
      Alcotest.(check bool) "reports the timeout" true
        (List.mem "s UNKNOWN (timeout)" lines))

let timeout_stops_recursive_learning () =
  (* depth-2 recursive learning alone takes about 3 s on this miter,
     after 0.1 s of preprocessing and equivalence reasoning; the
     deadline stops it between clauses *)
  in_tmp ".cnf" (fun cnf ->
      Cnf.Dimacs.write_file cnf
        (fst
           (Circuit.Miter.to_cnf
              (Circuit.Generators.ripple_adder ~bits:96)
              (Circuit.Generators.kogge_stone_adder ~bits:96)));
      let limit = Th.within 1.2 in
      let code, lines =
        run_lines
          [ cnf; "--preprocess"; "--equiv"; "--rl"; "2"; "--timeout"; "0.4" ]
      in
      Alcotest.(check bool) "answers before the slack runs out" false
        (Sat.Monotime.past (Some limit));
      Alcotest.(check int) "UNKNOWN exits 0" 0 code;
      Alcotest.(check bool) "reports the timeout" true
        (List.mem "s UNKNOWN (timeout)" lines))

let timeout_keeps_the_search () =
  (* a deadline that does not expire changes nothing about the search *)
  in_tmp ".cnf" (fun cnf ->
      Cnf.Dimacs.write_file cnf (Test_session.php 8 7);
      let conflicts args =
        let code, lines = run_lines (cnf :: "--stats" :: args) in
        Alcotest.(check int) "php(8,7) exits 20" 20 code;
        match
          List.find_map
            (fun l ->
               List.find_map
                 (fun w ->
                    match String.split_on_char '=' w with
                    | [ "conflicts"; n ] -> int_of_string_opt n
                    | _ -> None)
                 (String.split_on_char ' ' l))
            lines
        with
        | Some n -> n
        | None -> Alcotest.fail "no conflicts= in --stats output"
      in
      Alcotest.(check int) "same conflicts with --timeout 60"
        (conflicts []) (conflicts [ "--timeout"; "60" ]))

(* a counterexample shows each cycle's primary inputs by name, and no
   cycle lines for a design without inputs: here one DFF that toggles
   from 0, so bad rises in the second cycle *)
let bmc_counterexample_inputs () =
  in_tmp ".bench" (fun bench ->
      let oc = open_out bench in
      output_string oc "OUTPUT(bad)\nq = DFF(nq)\nnq = NOT(q)\nbad = BUF(q)\n";
      close_out oc;
      let code, lines =
        run_lines ~exe:(tool "bmc_tool") [ "--bench"; bench; "--bound"; "5" ]
      in
      Alcotest.(check int) "toggle exits 0" 0 code;
      Alcotest.(check string) "toggle verdict" "counterexample of length 2:"
        (List.hd lines);
      Alcotest.(check bool) "no cycle lines" false
        (List.exists (String.starts_with ~prefix:"  cycle") lines));
  let code, lines =
    run_lines ~exe:(tool "bmc_tool") [ "--bits"; "2"; "--bound"; "5" ]
  in
  Alcotest.(check int) "counter exits 0" 0 code;
  (* bad reads the count of the last cycle, whose input is free *)
  Alcotest.(check (list string)) "counter cycles"
    [ "counterexample of length 4:"; "  cycle 0: enable=true";
      "  cycle 1: enable=true"; "  cycle 2: enable=true" ]
    (List.filteri (fun i _ -> i < 4) lines)

(* a malformed BENCH file is a usage error: exit 2 and one
   "TOOL: FILE: message" line on stderr, never an uncaught exception *)
let malformed_bench name ?(dff_too = false) args_of () =
  let rejects file expect =
    in_tmp ".err" (fun err ->
        let code =
          Sys.command
            (Filename.quote_command (tool name) (args_of file)
               ~stdout:Filename.null ~stderr:err)
        in
        let ic = open_in_bin err in
        let text = String.trim (really_input_string ic (in_channel_length ic)) in
        close_in ic;
        Alcotest.(check int) (file ^ " exits 2") 2 code;
        Alcotest.(check string) "names tool and file"
          (Printf.sprintf "%s: %s: %s" name file expect) text)
  in
  in_tmp ".bench" (fun bad ->
      let oc = open_out bad in
      output_string oc "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = FOO(a, b)\n";
      close_out oc;
      rejects bad "unknown gate: FOO");
  (* a DFF design is malformed for the combinational tools *)
  if dff_too then
    rejects (example "counter3.bench")
      "unknown gate: DFF (combinational parser)"

let suite =
  [
    Th.case "exit codes" exit_codes;
    Th.case "certify exit codes" certify_exit_codes;
    Th.case "proof/check/core flow" proof_check_core_flow;
    Th.case "SAT proofs are derivations" proof_of_sat_is_derivation;
    Th.case "dratcheck rejects garbage" dratcheck_rejects_garbage;
    Th.case "miter corpus flow" miter_corpus_flow;
    Th.case "--metrics schema" metrics_schema;
    Th.case "--trace schema" trace_schema;
    Th.case "--timeout with every engine" timeout_any_engine;
    Th.case "--timeout keeps the search" timeout_keeps_the_search;
    Th.case "--timeout stops preprocessing" timeout_stops_preprocessing;
    Th.case "--timeout stops recursive learning"
      timeout_stops_recursive_learning;
    Th.case "cec_tool malformed BENCH"
      (malformed_bench "cec_tool" ~dff_too:true (fun f -> [ f; f ]));
    Th.case "sec_tool malformed BENCH"
      (malformed_bench "sec_tool" (fun f -> [ f; f ]));
    Th.case "atpg_tool malformed BENCH"
      (malformed_bench "atpg_tool" ~dff_too:true (fun f -> [ f ]));
    Th.case "bmc_tool malformed BENCH"
      (malformed_bench "bmc_tool" (fun f -> [ "--bench"; f ]));
    Th.case "bmc_tool counterexample inputs" bmc_counterexample_inputs;
  ]
