(* DRAT proof checker and trimmer.

   dratcheck CNF [PROOF] [--forward] [--lrat OUT] [--core OUT]
                 [--check-lrat FILE] [--stats]

   Default mode ingests the whole DRAT stream (additions and deletions),
   verifies the refutation backward drat-trim style, and can emit the
   trimmed LRAT certificate and the unsat core.  --forward replays the
   stream front-to-back checking every addition.  --check-lrat validates
   an LRAT certificate against the CNF, independently of any trimming.

   Exit codes: 0 verified refutation, 1 valid but not a refutation,
   2 invalid step / failed certificate, 3 I/O or parse error. *)

open Cmdliner

let exit_verified = 0
let exit_not_refutation = 1
let exit_invalid = 2
let exit_io = 3

let load path parse what =
  if not (Sys.file_exists path) then begin
    Printf.eprintf "dratcheck: no such %s file %s\n" what path;
    exit exit_io
  end;
  match parse path with
  | f -> f
  | exception (Failure msg | Cnf.Dimacs.Parse_error msg) ->
    Printf.eprintf "dratcheck: %s\n" msg;
    exit exit_io

let run cnf_path proof_path forward lrat_out core_out lrat_in stats =
  let formula = load cnf_path Cnf.Dimacs.parse_file "CNF" in
  (* standalone LRAT validation needs no DRAT stream *)
  (match lrat_in with
   | Some path ->
     let lines = load path Sat.Proof.parse_lrat_file "LRAT" in
     (match Sat.Proof.check_lrat formula lines with
      | Ok () ->
        Printf.printf "c lrat: %d lines verified against %s\n"
          (List.length lines) cnf_path;
        if proof_path = None then exit exit_verified
      | Error msg ->
        Printf.printf "c lrat: FAILED (%s)\n" msg;
        exit exit_invalid)
   | None -> ());
  let proof_path =
    match proof_path with
    | Some p -> p
    | None ->
      Printf.eprintf "dratcheck: missing PROOF argument (or --check-lrat)\n";
      exit exit_io
  in
  let steps = load proof_path Sat.Proof.parse_drat_file "DRAT" in
  if forward then begin
    if lrat_out <> None || core_out <> None then begin
      Printf.eprintf "dratcheck: --lrat/--core need the backward trimmer \
                      (drop --forward)\n";
      exit exit_io
    end;
    match Sat.Proof.check formula steps with
    | Sat.Proof.Valid_refutation ->
      print_endline "c forward: verified refutation";
      exit exit_verified
    | Sat.Proof.Valid_derivation ->
      print_endline "c forward: valid derivation (no refutation)";
      exit exit_not_refutation
    | Sat.Proof.Invalid_step i ->
      Printf.printf "c forward: INVALID at step %d\n" i;
      exit exit_invalid
  end;
  let t0 = Unix.gettimeofday () in
  match Sat.Proof.trim_hinted formula steps with
  | Sat.Proof.Trimmed { lines; core; kept_adds; total_adds }, hinted ->
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "c trim: verified refutation, kept %d of %d additions\n"
      kept_adds total_adds;
    if stats then begin
      Printf.printf "c stats: steps %d, lrat lines %d, core %d of %d \
                     clauses, %d from hints, trim time %.4fs\n"
        (List.length steps) (List.length lines) (List.length core)
        (Cnf.Formula.nclauses formula) hinted dt
    end;
    (match lrat_out with
     | Some out ->
       Sat.Proof.write_lrat_file out lines;
       Printf.printf "c lrat: written to %s\n" out
     | None -> ());
    (match core_out with
     | Some out ->
       Cnf.Dimacs.write_file out (Sat.Proof.core_formula formula core);
       Printf.printf "c core: written to %s\n" out
     | None -> ());
    exit exit_verified
  | Sat.Proof.Not_refutation, _ ->
    print_endline "c trim: proof is not a refutation";
    exit exit_not_refutation
  | Sat.Proof.Trim_invalid i, _ ->
    Printf.printf "c trim: INVALID at step %d\n" i;
    exit exit_invalid

let cnf =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"CNF" ~doc:"DIMACS CNF formula")

let proof =
  Arg.(value & pos 1 (some string) None
       & info [] ~docv:"PROOF"
         ~doc:"DRAT proof stream (additions and 'd'-prefixed deletions); \
               optional with --check-lrat")

let forward =
  Arg.(value & flag
       & info [ "forward" ]
         ~doc:"check every addition front-to-back instead of trimming \
               backward (slower; verifies unused steps too)")

let lrat_out =
  Arg.(value & opt (some string) None
       & info [ "lrat" ] ~docv:"OUT"
         ~doc:"write the trimmed LRAT certificate (per-step antecedent \
               hints) to OUT")

let core_out =
  Arg.(value & opt (some string) None
       & info [ "core" ] ~docv:"OUT"
         ~doc:"write the unsat core (original clauses the trimmed proof \
               uses) to OUT in DIMACS")

let lrat_in =
  Arg.(value & opt (some string) None
       & info [ "check-lrat" ] ~docv:"FILE"
         ~doc:"validate an LRAT certificate against CNF (exit 2 when it \
               fails); may be combined with trimming a PROOF")

let stats =
  Arg.(value & flag & info [ "stats" ] ~doc:"print trim/check statistics")

let cmd =
  Cmd.v
    (Cmd.info "dratcheck"
       ~doc:"check, trim and export DRAT refutations (LRAT, unsat cores)")
    Term.(const run $ cnf $ proof $ forward $ lrat_out $ core_out $ lrat_in
          $ stats)

let () = exit (Cmd.eval cmd)
