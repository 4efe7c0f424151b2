(* Benchmark-side tracing: a span around every call into a layer, and
   per-pass sums that become the per-layer metrics.  Off by default,
   where [time] is a plain call.  Spans stay in memory and are written
   as JSON lines when the run ends. *)

type span = {
  id : int;
  name : string;
  item : string;
  parent : int;  (* -1 at the root *)
  start : float;
  stop : float;
}

let on = ref false
let item = ref ""
let spans = ref []
let open_spans = ref []
let next_id = ref 0
let sums : (string, float) Hashtbl.t = Hashtbl.create 64

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(* A span timed by the caller; returns its id. *)
let record ?(parent = -1) ~item name start stop =
  let id = fresh_id () in
  if !on then spans := { id; name; item; parent; start; stop } :: !spans;
  id

let add name v =
  if !on then
    Hashtbl.replace sums name
      (v +. Option.value (Hashtbl.find_opt sums name) ~default:0.)

let addi name v = add name (float_of_int v)
let sum name = Option.value (Hashtbl.find_opt sums name) ~default:0.

(* Runs [f] inside span [name]; its duration is added to the sum of the
   same name. *)
let time name f =
  if not !on then f ()
  else begin
    let id = fresh_id () in
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let start = Unix.gettimeofday () in
    let close () =
      let stop = Unix.gettimeofday () in
      open_spans := List.tl !open_spans;
      spans := { id; name; item = !item; parent; start; stop } :: !spans;
      add name (stop -. start)
    in
    match f () with
    | r -> close (); r
    | exception e -> close (); raise e
  end

(* A fresh registry for one traced call. *)
let metrics () = if !on then Some (Sat.Metrics.create ()) else None

let timer m name = Sat.Metrics.timer_seconds (Sat.Metrics.timer m name)
let counter m name = Sat.Metrics.counter_value (Sat.Metrics.counter m name)

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
       output_string oc
         (Sat.Json.to_string
            (Sat.Json.Obj
               [
                 ("id", Sat.Json.Int s.id);
                 ("name", Sat.Json.String s.name);
                 ("item", Sat.Json.String s.item);
                 ("parent", Sat.Json.Int s.parent);
                 ("start", Sat.Json.Float s.start);
                 ("end", Sat.Json.Float s.stop);
               ]));
       output_char oc '\n')
    (List.rev !spans);
  close_out oc
