(* Metrics registry: counters, gauges, fixed-bucket histograms and phase
   timers, with a versioned JSON snapshot.  See metrics.mli and
   docs/METRICS.md for the schema contract. *)

let schema_version = 3
let schema_name = "satreda-metrics"

type counter = { mutable n : int }
type gauge = { mutable v : float }

type histogram = {
  bounds : float array; (* strictly increasing inclusive upper bounds *)
  counts : int array;   (* length bounds + 1; last bucket is overflow *)
  mutable sum : float;
  mutable total : int;
}

type timer = {
  mutable seconds : float;
  mutable runs : int;
  mutable open_since : float; (* nan when not running *)
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Timer of timer

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Timer _ -> "timer"

let find_or_add t name make describe =
  match Hashtbl.find_opt t.tbl name with
  | Some m -> m
  | None ->
    ignore describe;
    let m = make () in
    Hashtbl.add t.tbl name m;
    m

let clash name existing wanted =
  invalid_arg
    (Printf.sprintf "Metrics: %S is a %s, not a %s" name (kind_name existing)
       wanted)

(* --- counters ------------------------------------------------------------ *)

let counter t name =
  match find_or_add t name (fun () -> Counter { n = 0 }) "counter" with
  | Counter c -> c
  | m -> clash name m "counter"

let incr ?(by = 1) c = c.n <- c.n + by
let counter_value c = c.n

let set_counter c v = c.n <- v

(* --- gauges -------------------------------------------------------------- *)

let gauge t name =
  match find_or_add t name (fun () -> Gauge { v = 0. }) "gauge" with
  | Gauge g -> g
  | m -> clash name m "gauge"

let set_gauge g v = g.v <- v
let max_gauge g v = if v > g.v then g.v <- v
let gauge_value g = g.v

(* --- histograms ---------------------------------------------------------- *)

let check_bounds bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Metrics: histogram needs at least one bound";
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics: histogram bounds must be strictly increasing"
  done

let histogram t name ~bounds =
  match
    find_or_add t name
      (fun () ->
         check_bounds bounds;
         Histogram
           {
             bounds = Array.copy bounds;
             counts = Array.make (Array.length bounds + 1) 0;
             sum = 0.;
             total = 0;
           })
      "histogram"
  with
  | Histogram h ->
    if h.bounds <> bounds then
      invalid_arg (Printf.sprintf "Metrics: %S re-registered with different bounds" name);
    h
  | m -> clash name m "histogram"

(* Index of the bucket [v] falls into: the first bound [>= v] (bounds
   are inclusive upper limits, Prometheus "le" style), or the overflow
   bucket past the last bound. *)
let bucket_index bounds v =
  let n = Array.length bounds in
  let lo = ref 0 and hi = ref n in
  (* invariant: every bound below !lo is < v; bounds at/after !hi are >= v *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if bounds.(mid) >= v then hi := mid else lo := mid + 1
  done;
  !lo

let observe h v =
  let i = bucket_index h.bounds v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v;
  h.total <- h.total + 1

let observe_int h v = observe h (float_of_int v)
let histogram_total h = h.total
let histogram_sum h = h.sum
let histogram_counts h = Array.copy h.counts
let histogram_bounds h = Array.copy h.bounds

(* --- phase timers -------------------------------------------------------- *)

let timer t name =
  match
    find_or_add t name
      (fun () -> Timer { seconds = 0.; runs = 0; open_since = Float.nan })
      "timer"
  with
  | Timer tm -> tm
  | m -> clash name m "timer"

let phase_begin t name =
  let tm = timer t name in
  tm.open_since <- Monotime.now_s ()

let phase_end t name =
  let tm = timer t name in
  if not (Float.is_nan tm.open_since) then begin
    tm.seconds <- tm.seconds +. (Monotime.now_s () -. tm.open_since);
    tm.runs <- tm.runs + 1;
    tm.open_since <- Float.nan
  end

let time t name f =
  let tm = timer t name in
  let t0 = Monotime.now_s () in
  Fun.protect
    ~finally:(fun () ->
      tm.seconds <- tm.seconds +. (Monotime.now_s () -. t0);
      tm.runs <- tm.runs + 1)
    f

let add_time t name s =
  let tm = timer t name in
  tm.seconds <- tm.seconds +. s;
  tm.runs <- tm.runs + 1

let timer_seconds tm = tm.seconds

(* --- solver instruments --------------------------------------------------- *)

(* Default bucket layouts for solver-shape histograms; chosen once and
   documented in docs/METRICS.md — changing them is a schema change. *)
let lbd_bounds = [| 1.; 2.; 3.; 4.; 6.; 8.; 12.; 16.; 24.; 32. |]
let backjump_bounds = [| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]

let trail_bounds =
  [| 16.; 64.; 256.; 1024.; 4096.; 16384.; 65536.; 262144. |]

let time_bounds =
  [| 0.001; 0.005; 0.02; 0.1; 0.5; 2.; 10.; 60.; 300. |]

type solver_instruments = {
  lbd : histogram;
  backjump : histogram;
  trail : histogram;
}

let solver_instruments t =
  {
    lbd = histogram t "solver/lbd" ~bounds:lbd_bounds;
    backjump = histogram t "solver/backjump_levels" ~bounds:backjump_bounds;
    trail = histogram t "solver/trail_depth" ~bounds:trail_bounds;
  }

(* --- Types.stats bridge --------------------------------------------------- *)

let stats_fields (s : Types.stats) =
  [
    ("solver/decisions", s.decisions);
    ("solver/propagations", s.propagations);
    ("solver/conflicts", s.conflicts);
    ("solver/restarts", s.restarts_done);
    ("solver/learned", s.learned);
    ("solver/learned_literals", s.learned_literals);
    ("solver/deleted", s.deleted);
    ("solver/nonchrono_backjumps", s.nonchrono_backjumps);
    ("solver/skipped_levels", s.skipped_levels);
    ("solver/exported", s.exported);
    ("solver/imported", s.imported);
    ("solver/interrupts", s.interrupts);
  ]

let record_stats t (s : Types.stats) =
  List.iter (fun (name, v) -> set_counter (counter t name) v) (stats_fields s);
  max_gauge (gauge t "solver/max_level") (float_of_int s.max_level)

let add_stats t (s : Types.stats) =
  List.iter (fun (name, v) -> incr ~by:v (counter t name)) (stats_fields s);
  max_gauge (gauge t "solver/max_level") (float_of_int s.max_level)

(* --- merging -------------------------------------------------------------- *)

let merge_into ~into src =
  Hashtbl.iter
    (fun name m ->
       match m with
       | Counter c -> incr ~by:c.n (counter into name)
       | Gauge g -> max_gauge (gauge into name) g.v
       | Histogram h ->
         let dst = histogram into name ~bounds:h.bounds in
         Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) h.counts;
         dst.sum <- dst.sum +. h.sum;
         dst.total <- dst.total + h.total
       | Timer tm ->
         let dst = timer into name in
         dst.seconds <- dst.seconds +. tm.seconds;
         dst.runs <- dst.runs + tm.runs)
    src.tbl

(* --- JSON ------------------------------------------------------------------ *)

let sorted_section t pick =
  Hashtbl.fold
    (fun name m acc -> match pick name m with Some f -> f :: acc | None -> acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json ?tool t =
  let counters =
    sorted_section t (fun name -> function
      | Counter c -> Some (name, Json.Int c.n)
      | _ -> None)
  in
  let gauges =
    sorted_section t (fun name -> function
      | Gauge g -> Some (name, Json.Float g.v)
      | _ -> None)
  in
  let histograms =
    sorted_section t (fun name -> function
      | Histogram h ->
        Some
          ( name,
            Json.Obj
              [
                ("le", Json.List (Array.to_list h.bounds |> List.map (fun b -> Json.Float b)));
                ("counts", Json.List (Array.to_list h.counts |> List.map (fun c -> Json.Int c)));
                ("count", Json.Int h.total);
                ("sum", Json.Float h.sum);
              ] )
      | _ -> None)
  in
  let timers =
    sorted_section t (fun name -> function
      | Timer tm ->
        Some
          ( name,
            Json.Obj [ ("seconds", Json.Float tm.seconds); ("count", Json.Int tm.runs) ] )
      | _ -> None)
  in
  Json.Obj
    ((("schema", Json.String schema_name) :: ("version", Json.Int schema_version)
      ::
      (match tool with Some name -> [ ("tool", Json.String name) ] | None -> []))
     @ [
         ("counters", Json.Obj counters);
         ("gauges", Json.Obj gauges);
         ("histograms", Json.Obj histograms);
         ("timers", Json.Obj timers);
       ])

let of_json j =
  let fail m = Error ("Metrics.of_json: " ^ m) in
  match Json.member "schema" j with
  | Some (Json.String s) when s = schema_name -> (
    match Json.member "version" j with
    | Some (Json.Int v) when v = schema_version -> (
      let t = create () in
      let section name f =
        match Json.member name j with
        | Some (Json.Obj fields) -> List.iter f fields
        | _ -> ()
      in
      try
        section "counters" (fun (name, v) ->
          match Json.to_int v with
          | Some n -> set_counter (counter t name) n
          | None -> failwith (name ^ ": counter must be an integer"));
        section "gauges" (fun (name, v) ->
          match Json.to_float v with
          | Some f -> set_gauge (gauge t name) f
          | None -> failwith (name ^ ": gauge must be a number"));
        section "histograms" (fun (name, v) ->
          let floats key =
            match Option.bind (Json.member key v) Json.to_list with
            | Some l -> Array.of_list (List.filter_map Json.to_float l)
            | None -> failwith (name ^ ": missing " ^ key)
          in
          let ints key =
            match Option.bind (Json.member key v) Json.to_list with
            | Some l -> Array.of_list (List.filter_map Json.to_int l)
            | None -> failwith (name ^ ": missing " ^ key)
          in
          let bounds = floats "le" in
          let counts = ints "counts" in
          if Array.length counts <> Array.length bounds + 1 then
            failwith (name ^ ": counts must have one more entry than le");
          let h = histogram t name ~bounds in
          Array.blit counts 0 h.counts 0 (Array.length counts);
          h.total <-
            (match Option.bind (Json.member "count" v) Json.to_int with
             | Some n -> n
             | None -> Array.fold_left ( + ) 0 counts);
          h.sum <-
            (match Option.bind (Json.member "sum" v) Json.to_float with
             | Some s -> s
             | None -> 0.));
        section "timers" (fun (name, v) ->
          let tm = timer t name in
          tm.seconds <-
            (match Option.bind (Json.member "seconds" v) Json.to_float with
             | Some s -> s
             | None -> failwith (name ^ ": missing seconds"));
          tm.runs <-
            (match Option.bind (Json.member "count" v) Json.to_int with
             | Some n -> n
             | None -> 0));
        Ok t
      with Failure m -> fail m)
    | _ -> fail "unsupported or missing version")
  | _ -> fail "not a satreda-metrics document"

let write_file ?tool t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~indent:true (to_json ?tool t));
      output_char oc '\n')
