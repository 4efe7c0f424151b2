(* Shared --metrics / --trace plumbing for the CLI tools, and the one
   way they read a BENCH file ([load]).

   [setup ~tool] allocates a registry and/or trace sink when the
   corresponding flag was given and registers at_exit writers, so the
   files are emitted even when a tool leaves through [exit] — the
   SAT-competition exit codes make that the normal path.  The JSON
   schemas are documented in docs/METRICS.md. *)

open Cmdliner

type t = {
  metrics : Sat.Metrics.t option;
  trace : Sat.Trace.sink option;
}

let metrics_term =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
         ~doc:"write a versioned JSON metrics snapshot to $(docv) on exit \
               (schema documented in docs/METRICS.md)")

let trace_term =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
         ~doc:"write the structured solver event trace to $(docv) as JSON \
               Lines on exit (schema documented in docs/METRICS.md)")

let setup ~tool metrics_path trace_path =
  let metrics =
    Option.map
      (fun path ->
         let m = Sat.Metrics.create () in
         at_exit (fun () -> Sat.Metrics.write_file ~tool m path);
         m)
      metrics_path
  in
  let trace =
    Option.map
      (fun path ->
         let s = Sat.Trace.make_sink () in
         at_exit (fun () -> Sat.Trace.write_file ~tool [ s ] path);
         s)
      trace_path
  in
  { metrics; trace }

(* Reads a BENCH file with [parse]; a malformed one ends the tool with
   "TOOL: FILE: message" on stderr and exit 2. *)
let load ~tool parse path =
  try parse path
  with Circuit.Bench_format.Parse_error msg ->
    Printf.eprintf "%s: %s: %s\n" tool path msg;
    exit 2
