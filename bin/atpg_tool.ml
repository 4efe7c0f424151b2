(* ATPG over a BENCH-format netlist.

   atpg_tool FILE.bench [--no-fault-sim] [--structural] [--incremental]
             [--metrics FILE.json] [--trace FILE.jsonl] *)

open Cmdliner

let run path no_fault_sim structural incremental per_query metrics_path
    trace_path =
  let obs = Obs.setup ~tool:"atpg_tool" metrics_path trace_path in
  let c = Obs.load ~tool:"atpg_tool" Circuit.Bench_format.parse_file path in
  Format.printf "circuit: %a@." Circuit.Netlist.pp_stats c;
  let on_query f (st : Sat.Types.stats) =
    if per_query then
      Format.printf "  %a: %d decisions, %d conflicts, %d restarts@."
        (Eda.Atpg.pp_fault c) f st.Sat.Types.decisions st.Sat.Types.conflicts
        st.Sat.Types.restarts_done
  in
  let summary =
    if incremental || per_query || obs.Obs.trace <> None then
      Eda.Atpg.run_incremental ?metrics:obs.Obs.metrics ?trace:obs.Obs.trace
        ~on_query c
    else
      Eda.Atpg.run ?metrics:obs.Obs.metrics ~use_structural:structural
        ~fault_simulation:(not no_fault_sim) c
  in
  Format.printf "%a@." Eda.Atpg.pp_summary summary;
  let redundant = summary.Eda.Atpg.redundant in
  if redundant > 0 then
    Format.printf "%d redundant fault(s): the circuit contains removable logic@."
      redundant

let file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"BENCH netlist")

let no_fault_sim =
  Arg.(value & flag & info [ "no-fault-sim" ] ~doc:"disable fault simulation")

let structural =
  Arg.(value & flag & info [ "structural" ] ~doc:"use the Section 5 circuit layer")

let incremental =
  Arg.(value & flag & info [ "incremental" ] ~doc:"one incremental solver for all faults")

let per_query =
  Arg.(value & flag
       & info [ "per-query" ]
         ~doc:"print per-fault solver statistics (implies --incremental)")

let cmd =
  Cmd.v
    (Cmd.info "atpg_tool" ~doc:"stuck-at test pattern generation")
    Term.(const run $ file $ no_fault_sim $ structural $ incremental
          $ per_query $ Obs.metrics_term $ Obs.trace_term)

let () = exit (Cmd.eval cmd)
