(* The SAT service daemon.

   satd --socket /tmp/satd.sock [--tcp HOST:PORT] [--jobs N]
        [--max-queue N] [--max-conflicts N] [--cube-threshold N]
        [--cache-results N] [--cache-sessions N] [--verbose]              *)

open Cmdliner

let split_hostport s =
  match String.rindex_opt s ':' with
  | None -> Error (`Msg "expected HOST:PORT")
  | Some i ->
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt port with
     | Some p when p > 0 && p < 65536 ->
       Ok ((if host = "" then "127.0.0.1" else host), p)
     | _ -> Error (`Msg "expected HOST:PORT"))

let hostport =
  Arg.conv
    (split_hostport,
     fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)

let run socket tcp jobs max_queue max_conflicts_cap cube_threshold
    max_results max_sessions verbose =
  if socket = None && tcp = None then begin
    Printf.eprintf "satd: at least one of --socket or --tcp is required\n";
    exit 2
  end;
  let cfg =
    { Service.Server.default_config with
      Service.Server.unix_path = socket;
      tcp;
      jobs;
      max_queue;
      max_conflicts_cap;
      cube_threshold;
      max_results;
      max_sessions;
      verbose }
  in
  let server =
    try Service.Server.create cfg
    with Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "satd: cannot listen (%s %s: %s)\n" fn arg
        (Unix.error_message e);
      exit 2
  in
  (* SIGINT/SIGTERM drain gracefully, like a shutdown verb *)
  let request_stop _ = Service.Server.stop server in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop)
   with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop)
   with Invalid_argument _ -> ());
  if verbose then begin
    (match socket with
     | Some p -> Printf.eprintf "satd: listening on unix:%s\n%!" p
     | None -> ());
    (match tcp with
     | Some (h, p) -> Printf.eprintf "satd: listening on tcp:%s:%d\n%!" h p
     | None -> ())
  end;
  Service.Server.run server

let socket =
  Arg.(value & opt (some string) None
       & info [ "socket"; "s" ] ~docv:"PATH"
         ~doc:"listen on a Unix-domain socket at $(docv)")

let tcp =
  Arg.(value & opt (some hostport) None
       & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"listen on a TCP address")

let jobs =
  Arg.(value
       & opt int Service.Server.default_config.Service.Server.jobs
       & info [ "jobs"; "j" ]
         ~doc:"worker domains solving queries concurrently")

let max_queue =
  Arg.(value & opt int 128
       & info [ "max-queue" ]
         ~doc:"admission control: queries queued beyond this are refused \
               with an $(i,overloaded) error")

let max_conflicts_cap =
  Arg.(value & opt (some int) None
       & info [ "max-conflicts" ]
         ~doc:"server-wide cap on every query's conflict budget")

let cube_threshold =
  Arg.(value & opt (some int) None
       & info [ "cube-threshold" ]
         ~doc:"decompose unbudgeted assumption-free queries with at least \
               this many clauses by cube-and-conquer across the worker \
               domains (off by default)")

let max_results =
  Arg.(value & opt int 4096
       & info [ "cache-results" ] ~doc:"result-cache capacity (entries)")

let max_sessions =
  Arg.(value & opt int 64
       & info [ "cache-sessions" ] ~doc:"warm-session-pool capacity")

let verbose =
  Arg.(value & flag
       & info [ "verbose"; "v" ] ~doc:"log connections and queries to stderr")

let cmd =
  Cmd.v
    (Cmd.info "satd"
       ~doc:"multi-tenant SAT solving daemon"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Serves SAT queries over line-delimited JSON (one frame per \
              line) on a Unix-domain socket and/or a TCP address.  \
              Concurrent queries are scheduled onto a bounded pool of \
              worker domains; repeated formulas answer from a result \
              cache, and incrementally grown formulas resume on pooled \
              warm sessions with learned clauses intact.  See \
              docs/SATD.md for the protocol.";
         ])
    Term.(const run $ socket $ tcp $ jobs $ max_queue $ max_conflicts_cap
          $ cube_threshold $ max_results $ max_sessions $ verbose)

let () = exit (Cmd.eval cmd)
