(* Event-loop socket server.  See server.mli for the contract. *)

module J = Sat.Json

type config = {
  unix_path : string option;
  tcp : (string * int) option;
  jobs : int;
  max_queue : int;
  max_frame : int;
  max_conflicts_cap : int option;
  cube_threshold : int option;
  autotune : bool;
  max_results : int;
  max_sessions : int;
  verbose : bool;
}

let default_config =
  {
    unix_path = None;
    tcp = None;
    jobs = max 1 (Domain.recommended_domain_count () - 1);
    max_queue = 128;
    max_frame = 16 * 1024 * 1024;
    max_conflicts_cap = None;
    cube_threshold = None;
    autotune = false;
    max_results = 4096;
    max_sessions = 64;
    verbose = false;
  }

(* --- growable input byte queue with newline scanning ---------------------- *)

module Bq = struct
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;  (* first live byte *)
    mutable len : int;  (* live bytes *)
    mutable scanned : int;  (* bytes (from start) already newline-scanned *)
  }

  let create () = { buf = Bytes.create 4096; start = 0; len = 0; scanned = 0 }
  let length t = t.len

  let add t src n =
    if t.start + t.len + n > Bytes.length t.buf then begin
      (* compact, growing if the live data + new data still don't fit *)
      let need = t.len + n in
      let cap = max (Bytes.length t.buf) 64 in
      let cap = if need > cap then max need (2 * cap) else cap in
      let fresh = if cap > Bytes.length t.buf then Bytes.create cap else t.buf in
      Bytes.blit t.buf t.start fresh 0 t.len;
      t.buf <- fresh;
      t.start <- 0
    end;
    Bytes.blit src 0 t.buf (t.start + t.len) n;
    t.len <- t.len + n

  (* next complete line, without its '\n' *)
  let take_line t =
    let rec scan i =
      if i >= t.len then begin
        t.scanned <- t.len;
        None
      end
      else if Bytes.get t.buf (t.start + i) = '\n' then begin
        let line = Bytes.sub_string t.buf t.start i in
        t.start <- t.start + i + 1;
        t.len <- t.len - i - 1;
        t.scanned <- 0;
        Some line
      end
      else scan (i + 1)
    in
    scan t.scanned
end

(* --- client state --------------------------------------------------------- *)

type client = {
  fd : Unix.file_descr;
  cid : int;
  peer : string;
  inq : Bq.t;
  outq : string Queue.t;  (* frames (with trailing '\n') awaiting write *)
  mutable out_off : int;  (* bytes of the head frame already written *)
  pending : (string, Scheduler.job) Hashtbl.t;  (* qid -> in-flight job *)
}

type t = {
  cfg : config;
  sched : Scheduler.t;
  listeners : Unix.file_descr list;
  unix_path : string option;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  clients : (int, client) Hashtbl.t;
  completions_lock : Mutex.t;
  completions : (int * string * string) Queue.t;  (* cid, qid, frame *)
  stop_requested : bool Atomic.t;
  mutable next_cid : int;
  mutable shutdown_waiters : (int * string) list;  (* cid, request id *)
  mutable draining : bool;
  (* connection counters for the stats verb *)
  mutable accepted : int;
  mutable malformed : int;
}

let log t fmt =
  if t.cfg.verbose then
    Printf.ksprintf (fun m -> Printf.eprintf "satd: %s\n%!" m) fmt
  else Printf.ksprintf ignore fmt

(* --- lifecycle ------------------------------------------------------------ *)

let listen_unix path =
  if Sys.file_exists path then Unix.unlink path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp host port =
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_of_string host
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  fd

let create (cfg : config) =
  if cfg.unix_path = None && cfg.tcp = None then
    invalid_arg "Server.create: no listener configured";
  (* a client that vanishes mid-write must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listeners =
    (match cfg.unix_path with Some p -> [ listen_unix p ] | None -> [])
    @ (match cfg.tcp with
       | Some (h, p) -> [ listen_tcp h p ]
       | None -> [])
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let cache =
    Cache.create ~max_results:cfg.max_results ~max_sessions:cfg.max_sessions
      ()
  in
  {
    cfg;
    sched =
      Scheduler.create ~jobs:cfg.jobs ~max_queue:cfg.max_queue
        ?max_conflicts_cap:cfg.max_conflicts_cap
        ?cube_threshold:cfg.cube_threshold
        ~autotune:cfg.autotune ~cache ();
    listeners;
    unix_path = cfg.unix_path;
    wake_r;
    wake_w;
    clients = Hashtbl.create 64;
    completions_lock = Mutex.create ();
    completions = Queue.create ();
    stop_requested = Atomic.make false;
    next_cid = 0;
    shutdown_waiters = [];
    draining = false;
    accepted = 0;
    malformed = 0;
  }

let scheduler t = t.sched
let stop t = Atomic.set t.stop_requested true

(* --- output --------------------------------------------------------------- *)

let enqueue_frame client json =
  Queue.add (J.to_string json ^ "\n") client.outq

let wake t =
  (* full pipe = a wake is already pending; that is all we need *)
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* try to push queued frames out; false when the client must be dropped *)
let flush_client client =
  try
    let progress = ref true in
    while !progress && not (Queue.is_empty client.outq) do
      let head = Queue.peek client.outq in
      let remaining = String.length head - client.out_off in
      let n =
        Unix.write_substring client.fd head client.out_off remaining
      in
      if n = remaining then begin
        ignore (Queue.pop client.outq);
        client.out_off <- 0
      end
      else begin
        client.out_off <- client.out_off + n;
        progress := false
      end
    done;
    true
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

(* --- request dispatch ----------------------------------------------------- *)

let completion_frame t client_id qid frame =
  Mutex.lock t.completions_lock;
  Queue.add (client_id, qid, frame) t.completions;
  Mutex.unlock t.completions_lock;
  wake t

let stats_payload t =
  match Scheduler.stats_json t.sched with
  | J.Obj fields ->
    J.Obj
      (("connections",
        J.Obj
          [
            ("active", J.Int (Hashtbl.length t.clients));
            ("accepted", J.Int t.accepted);
            ("malformed_frames", J.Int t.malformed);
          ])
       :: fields)
  | other -> other

let handle_request t client id req =
  match req with
  | Protocol.Ping -> enqueue_frame client (Protocol.ok_reply ~id ~verb:"ping")
  | Protocol.Stats ->
    enqueue_frame client (Protocol.stats_reply ~id ~data:(stats_payload t))
  | Protocol.Cancel target ->
    (match Hashtbl.find_opt client.pending target with
     | Some job -> Scheduler.cancel t.sched job
     | None -> ());
    enqueue_frame client (Protocol.ok_reply ~id ~verb:"cancel")
  | Protocol.Shutdown ->
    log t "shutdown requested by client %d" client.cid;
    t.draining <- true;
    Scheduler.set_draining t.sched;
    t.shutdown_waiters <- (client.cid, id) :: t.shutdown_waiters
  | Protocol.Solve params ->
    if t.draining then
      enqueue_frame client
        (Protocol.error_reply ~id Protocol.Shutting_down
           "daemon is draining")
    else begin
      let deadline =
        Option.map
          (fun ms -> Sat.Monotime.now_s () +. (float_of_int ms /. 1000.))
          params.Protocol.timeout_ms
      in
      let cid = client.cid in
      let nvars = params.Protocol.nvars in
      let on_done (a : Scheduler.answer) =
        (* worker domain: render the reply here, deliver via the loop *)
        let frame =
          J.to_string
            (Protocol.solve_reply ~id ~nvars
               {
                 Protocol.outcome = a.Scheduler.outcome;
                 cached = a.Scheduler.cached;
                 warm = a.Scheduler.warm;
                 matched_prefix = a.Scheduler.matched_prefix;
                 time_s = a.Scheduler.time_s;
                 conflicts = a.Scheduler.conflicts;
                 decisions = a.Scheduler.decisions;
               })
          ^ "\n"
        in
        completion_frame t cid id frame
      in
      match Scheduler.submit t.sched ?deadline ~on_done params with
      | Ok job -> Hashtbl.replace client.pending id job
      | Error Scheduler.Overloaded ->
        enqueue_frame client
          (Protocol.error_reply ~id Protocol.Overloaded "queue is full")
      | Error Scheduler.Draining ->
        enqueue_frame client
          (Protocol.error_reply ~id Protocol.Shutting_down
             "daemon is draining")
    end

let handle_line t client line =
  if String.trim line <> "" then
    match J.parse_line line with
    | Error e ->
      t.malformed <- t.malformed + 1;
      enqueue_frame client
        (Protocol.error_reply ~id:"" Protocol.Parse_error e)
    | Ok json ->
      (match Protocol.request_of_json json with
       | Error (id, code, msg) ->
         t.malformed <- t.malformed + 1;
         enqueue_frame client (Protocol.error_reply ~id code msg)
       | Ok (id, req) -> handle_request t client id req)

(* --- connection management ------------------------------------------------ *)

let peer_string fd =
  match Unix.getpeername fd with
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (a, p) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | exception Unix.Unix_error _ -> "?"

let accept_client t lfd =
  match Unix.accept lfd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | fd, _ ->
    Unix.set_nonblock fd;
    let cid = t.next_cid in
    t.next_cid <- cid + 1;
    t.accepted <- t.accepted + 1;
    let client =
      {
        fd;
        cid;
        peer = peer_string fd;
        inq = Bq.create ();
        outq = Queue.create ();
        out_off = 0;
        pending = Hashtbl.create 4;
      }
    in
    Hashtbl.replace t.clients cid client;
    log t "client %d connected (%s)" cid client.peer

let drop_client t client reason =
  log t "client %d dropped (%s, %d in flight)" client.cid reason
    (Hashtbl.length client.pending);
  (* cooperatively cancel everything the client was waiting for *)
  Hashtbl.iter (fun _ job -> Scheduler.cancel t.sched job) client.pending;
  Hashtbl.reset client.pending;
  Hashtbl.remove t.clients client.cid;
  (try Unix.close client.fd with Unix.Unix_error _ -> ())

let read_client t client =
  let chunk = Bytes.create 65536 in
  match Unix.read client.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    drop_client t client "reset"
  | 0 -> drop_client t client "eof"
  | n ->
    Bq.add client.inq chunk n;
    let rec frames () =
      match Bq.take_line client.inq with
      | Some line ->
        if String.length line > t.cfg.max_frame then begin
          t.malformed <- t.malformed + 1;
          enqueue_frame client
            (Protocol.error_reply ~id:"" Protocol.Too_large
               (Printf.sprintf "frame exceeds %d bytes" t.cfg.max_frame));
          ignore (flush_client client);
          drop_client t client "oversized frame"
        end
        else begin
          handle_line t client line;
          if Hashtbl.mem t.clients client.cid then frames ()
        end
      | None ->
        (* an unterminated line longer than the bound can never become
           a valid frame; cut the connection rather than buffer it *)
        if Bq.length client.inq > t.cfg.max_frame then begin
          t.malformed <- t.malformed + 1;
          enqueue_frame client
            (Protocol.error_reply ~id:"" Protocol.Too_large
               (Printf.sprintf "frame exceeds %d bytes" t.cfg.max_frame));
          ignore (flush_client client);
          drop_client t client "oversized frame"
        end
    in
    frames ()

let deliver_completions t =
  Mutex.lock t.completions_lock;
  let batch = Queue.copy t.completions in
  Queue.clear t.completions;
  Mutex.unlock t.completions_lock;
  Queue.iter
    (fun (cid, qid, frame) ->
       match Hashtbl.find_opt t.clients cid with
       | Some client ->
         Hashtbl.remove client.pending qid;
         Queue.add frame client.outq
       | None -> ())
    batch

let drain_wake_pipe t =
  let b = Bytes.create 256 in
  let rec go () =
    match Unix.read t.wake_r b 0 (Bytes.length b) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | n -> if n = Bytes.length b then go ()
  in
  go ()

(* --- the loop ------------------------------------------------------------- *)

let run t =
  let finished = ref false in
  while not !finished do
    (* external stop (signal) behaves like a shutdown verb *)
    if Atomic.get t.stop_requested && not t.draining then begin
      log t "stop requested";
      t.draining <- true;
      Scheduler.set_draining t.sched
    end;
    deliver_completions t;
    (* shutdown completes once all work has drained *)
    if t.draining && Scheduler.quiescent t.sched then begin
      Mutex.lock t.completions_lock;
      let empty = Queue.is_empty t.completions in
      Mutex.unlock t.completions_lock;
      if empty then begin
        List.iter
          (fun (cid, id) ->
             match Hashtbl.find_opt t.clients cid with
             | Some client ->
               enqueue_frame client (Protocol.ok_reply ~id ~verb:"shutdown")
             | None -> ())
          (List.rev t.shutdown_waiters);
        t.shutdown_waiters <- [];
        (* last flush; clients that cannot take the bytes now lose them *)
        Hashtbl.iter (fun _ c -> ignore (flush_client c)) t.clients;
        let still_pending =
          Hashtbl.fold
            (fun _ c acc -> acc || not (Queue.is_empty c.outq))
            t.clients false
        in
        if not still_pending then finished := true
      end
    end;
    if not !finished then begin
      let client_fds =
        Hashtbl.fold (fun _ c acc -> c.fd :: acc) t.clients []
      in
      let reads =
        if t.draining then t.wake_r :: client_fds
        else (t.wake_r :: t.listeners) @ client_fds
      in
      let writes =
        Hashtbl.fold
          (fun _ c acc ->
             if Queue.is_empty c.outq then acc else c.fd :: acc)
          t.clients []
      in
      match Unix.select reads writes [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
        if List.mem t.wake_r readable then drain_wake_pipe t;
        List.iter
          (fun lfd -> if List.mem lfd readable then accept_client t lfd)
          t.listeners;
        (* snapshot: handlers may drop clients from the table *)
        let by_fd fd =
          Hashtbl.fold
            (fun _ c acc -> if c.fd = fd then Some c else acc)
            t.clients None
        in
        List.iter
          (fun fd ->
             match by_fd fd with
             | Some c -> if not (flush_client c) then drop_client t c "write"
             | None -> ())
          writable;
        List.iter
          (fun fd ->
             if fd <> t.wake_r && not (List.mem fd t.listeners) then
               match by_fd fd with
               | Some c -> read_client t c
               | None -> ())
          readable
    end
  done;
  (* teardown *)
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    t.clients;
  Hashtbl.reset t.clients;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listeners;
  (match t.unix_path with
   | Some p -> (try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
   | None -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  Scheduler.shutdown t.sched;
  log t "bye"
