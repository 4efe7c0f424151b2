(* Per-instance auto-tuning: cheap syntactic + probe-measured features,
   and a transparent rule-based selector mapping them to a solving
   policy.

   Everything here is a published contract: the feature formulas and
   the decision table are specified in docs/TUNING.md and pinned by
   test/test_autotune.ml.  Keep the three in sync — the whole point of a
   rule-based selector (rather than a learned one) is that a user can
   read the table, predict the policy, and file a bug when the solver
   disagrees. *)

type features = {
  nvars : int;
  nclauses : int;
  gate_like_frac : float;
  probe_density : float;
  probes_run : int;
  extraction_time_s : float;
}

type engine_choice =
  | Sequential
  | Portfolio_race of int
  | Cube_conquer of int

type preprocess_level = Pre_off | Pre_basic | Pre_full

type policy = {
  engine : engine_choice;
  preprocess : preprocess_level;
  reason : string list;
}

(* --- feature extraction --------------------------------------------------- *)

(* Gate-shape test (docs/TUNING.md "gate_like_frac"): variable [v] is
   gate-shaped when its occurrence profile matches a Tseitin AND/OR
   output, i.e. the clause set contains the two binary implication
   clauses plus the ternary closing clause of o = a AND b:
   (-o a)(-o b)(o -a -b).  Either polarity orientation counts. *)
let gate_shaped ~bin_pos ~bin_neg ~ter_pos ~ter_neg v =
  (bin_neg.(v) >= 2 && ter_pos.(v) >= 1)
  || (bin_pos.(v) >= 2 && ter_neg.(v) >= 1)

(* Probe density (docs/TUNING.md "probe_density"): over the
   [min probes n] highest-occurrence variables (ties broken toward the
   lower index), push the positive literal through the propagator and
   measure trail growth; the feature is the mean growth per
   non-conflicting probe, divided by the variable count.  Probing never
   learns or counts conflicts, so extraction is pure propagation work. *)
let probes = 32

let probe_density_of f ~occ =
  let n = Cnf.Formula.nvars f in
  if n = 0 then (0.0, 0)
  else begin
    let s = Cdcl.create f in
    if not (Cdcl.propagate_root s) then (0.0, 0)
    else begin
      let order = Array.init n (fun v -> v) in
      Array.sort
        (fun a b ->
           if occ.(a) <> occ.(b) then compare occ.(b) occ.(a)
           else compare a b)
        order;
      let k = min probes n in
      let growth = ref 0 and ok = ref 0 and failed = ref 0 in
      (try
         for i = 0 to k - 1 do
           if not (Cdcl.consistent s) then raise Exit;
           match Cdcl.probe_push s (Cnf.Lit.pos order.(i)) with
           | Cdcl.Probe_conflict -> incr failed
           | Cdcl.Probe_ok (lo, hi) ->
             growth := !growth + (hi - lo);
             incr ok;
             Cdcl.probe_pop s
         done
       with Exit -> ());
      let d =
        if !ok = 0 then 0.0
        else float_of_int !growth /. float_of_int !ok /. float_of_int n
      in
      (d, !ok + !failed)
    end
  end

let extract f =
  let t0 = Monotime.now_s () in
  let n = Cnf.Formula.nvars f and m = Cnf.Formula.nclauses f in
  let occ = Array.make (max n 1) 0 in
  let bin_pos = Array.make (max n 1) 0
  and bin_neg = Array.make (max n 1) 0
  and ter_pos = Array.make (max n 1) 0
  and ter_neg = Array.make (max n 1) 0 in
  Cnf.Formula.iter_clauses f (fun c ->
      let len = Cnf.Clause.size c in
      List.iter
        (fun l ->
           let v = Cnf.Lit.var l in
           if v < n then begin
             occ.(v) <- occ.(v) + 1;
             if Cnf.Lit.is_pos l then begin
               if len = 2 then bin_pos.(v) <- bin_pos.(v) + 1;
               if len = 3 then ter_pos.(v) <- ter_pos.(v) + 1
             end
             else begin
               if len = 2 then bin_neg.(v) <- bin_neg.(v) + 1;
               if len = 3 then ter_neg.(v) <- ter_neg.(v) + 1
             end
           end)
        (Cnf.Clause.to_list c));
  let gate_like = ref 0 in
  for v = 0 to n - 1 do
    if gate_shaped ~bin_pos ~bin_neg ~ter_pos ~ter_neg v then incr gate_like
  done;
  let probe_density, probes_run = probe_density_of f ~occ in
  {
    nvars = n;
    nclauses = m;
    gate_like_frac = float_of_int !gate_like /. float_of_int (max 1 n);
    probe_density;
    probes_run;
    extraction_time_s = Monotime.now_s () -. t0;
  }

(* --- the selector --------------------------------------------------------- *)

(* The decision table (docs/TUNING.md "Selector decision table").  Each
   dimension fires exactly one rule; [reason] records the fired ids in
   order engine, preprocess. *)
let select ?(jobs = 1) (ft : features) =
  let fired = ref [] in
  let fire id v = fired := id :: !fired; v in
  let engine =
    if jobs <= 1 then fire "E1" Sequential
    else if ft.probe_density >= 0.02 && ft.nvars >= 64 then
      fire "E2" (Cube_conquer jobs)
    else fire "E3" (Portfolio_race jobs)
  in
  let preprocess =
    if ft.nclauses < 200 then fire "P1" Pre_off
    else if ft.gate_like_frac >= 0.25 then fire "P2" Pre_full
    else fire "P3" Pre_basic
  in
  { engine; preprocess; reason = List.rev !fired }

(* --- rendering and metrics ----------------------------------------------- *)

let engine_label = function
  | Sequential -> "cdcl"
  | Portfolio_race j -> Printf.sprintf "portfolio(%d)" j
  | Cube_conquer j -> Printf.sprintf "cube-conquer(%d)" j

let preprocess_label = function
  | Pre_off -> "off"
  | Pre_basic -> "basic"
  | Pre_full -> "full"

let feature_fields ft =
  [
    ("nvars", float_of_int ft.nvars);
    ("nclauses", float_of_int ft.nclauses);
    ("gate_like_frac", ft.gate_like_frac);
    ("probe_density", ft.probe_density);
    ("probes_run", float_of_int ft.probes_run);
    ("extraction_time_s", ft.extraction_time_s);
  ]

let emit_metrics reg ft p =
  Metrics.incr (Metrics.counter reg "autotune/runs");
  Metrics.set_gauge
    (Metrics.gauge reg "autotune/gate_like_frac")
    ft.gate_like_frac;
  Metrics.set_gauge (Metrics.gauge reg "autotune/probe_density") ft.probe_density;
  Metrics.set_gauge
    (Metrics.gauge reg "autotune/extraction_seconds")
    ft.extraction_time_s;
  let engine_counter =
    match p.engine with
    | Sequential -> "autotune/engine_cdcl"
    | Portfolio_race _ -> "autotune/engine_portfolio"
    | Cube_conquer _ -> "autotune/engine_cube"
  in
  Metrics.incr (Metrics.counter reg engine_counter)
