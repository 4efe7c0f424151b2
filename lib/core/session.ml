(* Incremental solving sessions over a single long-lived CDCL solver.
   See session.mli for the contract. *)

module Lit = Cnf.Lit

type activation_state = Active | Released

(* per-query observability bundle; see [attach_metrics] *)
type obs = {
  reg : Metrics.t;
  q_count : Metrics.counter;
  q_time : Metrics.histogram;
}

type t = {
  cdcl : Cdcl.t;
  activations : (int, activation_state) Hashtbl.t; (* activation var -> state *)
  mutable queries : int;
  mutable last : Types.stats;
  mutable cached_model : bool array option;
  mutable released_dirty : bool;
      (* a release happened since the last [drop_released] pass *)
  mutable obs : obs option;
}

let of_formula ?(config = Types.default) f =
  {
    cdcl = Cdcl.create ~config f;
    activations = Hashtbl.create 16;
    queries = 0;
    last = Types.mk_stats ();
    cached_model = None;
    released_dirty = false;
    obs = None;
  }

let create ?config () = of_formula ?config (Cnf.Formula.create ())
let nvars t = Cdcl.nvars t.cdcl
let new_var t = Cdcl.new_var t.cdcl
let apply_guidance t g = Cdcl.apply_guidance t.cdcl g
let raw t = t.cdcl
let queries t = t.queries
let last_stats t = t.last
let cumulative_stats t = Types.copy_stats (Cdcl.stats t.cdcl)
let model t = t.cached_model

(* --- observability -------------------------------------------------------- *)

let attach_metrics t m =
  Cdcl.set_instruments t.cdcl (Some (Metrics.solver_instruments m));
  t.obs <-
    Some
      {
        reg = m;
        q_count = Metrics.counter m "session/queries";
        q_time =
          Metrics.histogram m "session/query_time_s"
            ~bounds:Metrics.time_bounds;
      }

let set_tracer t tr = Cdcl.set_tracer t.cdcl tr

let add_clause t lits =
  t.cached_model <- None;
  Cdcl.add_clause t.cdcl lits

let add_formula t f =
  Cnf.Formula.iter_clauses f (fun c -> add_clause t (Cnf.Clause.to_list c))

(* --- activation groups --------------------------------------------------- *)

let new_activation t =
  let v = Cdcl.new_var t.cdcl in
  Hashtbl.replace t.activations v Active;
  Lit.pos v

let check_active t a name =
  match Hashtbl.find_opt t.activations (Lit.var a) with
  | Some Active when Lit.is_pos a -> ()
  | Some Active | Some Released | None ->
    invalid_arg (name ^ ": not a live activation literal of this session")

let add_clause_in t ~group lits =
  check_active t group "Session.add_clause_in";
  add_clause t (Lit.negate group :: lits)

let is_active t a =
  Lit.is_pos a && Hashtbl.find_opt t.activations (Lit.var a) = Some Active

let release t a =
  match Hashtbl.find_opt t.activations (Lit.var a) with
  | Some Released -> ()
  | Some Active ->
    Hashtbl.replace t.activations (Lit.var a) Released;
    t.released_dirty <- true;
    add_clause t [ Lit.negate a ]
  | None -> invalid_arg "Session.release: not an activation literal"

(* --- between-query pruning ----------------------------------------------- *)

let mentions_released t lits =
  Array.exists
    (fun l -> Hashtbl.find_opt t.activations (Lit.var l) = Some Released)
    lits

(* learned clauses mentioning a released activation variable are
   permanently satisfied by its release unit and only burden the watch
   lists; the pass runs only when something was released since the
   last one *)
let drop_released t =
  if t.released_dirty then begin
    Cdcl.prune_learnts t.cdcl ~keep:(fun ~lbd:_ ~size:_ ~lits ->
        not (mentions_released t lits));
    t.released_dirty <- false
  end

(* --- queries -------------------------------------------------------------- *)

let solve ?(assumptions = []) ?max_conflicts ?max_decisions ?stop ?deadline t
  =
  if t.queries > 0 then drop_released t;
  let before = Types.copy_stats (Cdcl.stats t.cdcl) in
  let t0 = match t.obs with Some _ -> Monotime.now_s () | None -> 0. in
  let outcome =
    Cdcl.solve ~assumptions ?max_conflicts ?max_decisions ?stop ?deadline
      t.cdcl
  in
  t.queries <- t.queries + 1;
  t.last <- Types.diff_stats (Cdcl.stats t.cdcl) before;
  (match t.obs with
   | Some o ->
     Metrics.incr o.q_count;
     Metrics.observe o.q_time (Monotime.now_s () -. t0);
     (* per-query deltas {e add} into the registry, so metrics stay
        correct even when a caller runs many short-lived sessions
        against one registry (e.g. BMC in from-scratch mode) *)
     Metrics.add_stats o.reg t.last
   | None -> ());
  t.cached_model <-
    (match outcome with Types.Sat m -> Some m | _ -> None);
  outcome

(* Core-driven assumption minimization: shrink an assumption set to a
   (locally) minimal subset still refuted by the formula.  Each query's
   [Unsat_assuming] core prunes the candidate set; a destructive pass
   then tries dropping each surviving literal once. *)
let minimize_assumptions ?(max_rounds = 4) ?max_conflicts t assumptions =
  let solve_with asms = solve ~assumptions:asms ?max_conflicts t in
  match solve_with assumptions with
  | Types.Sat _ | Types.Unknown _ -> None
  | Types.Unsat -> Some []
  | Types.Unsat_assuming core ->
    (* fixpoint: re-solving under the core alone often yields a smaller
       core, because the search is no longer steered by the dropped
       assumptions *)
    let rec fixpoint rounds core =
      if rounds <= 0 || core = [] then core
      else
        match solve_with core with
        | Types.Unsat -> []
        | Types.Unsat_assuming c when List.length c < List.length core ->
          fixpoint (rounds - 1) c
        | _ -> core
    in
    let core = fixpoint max_rounds core in
    (* destructive pass: drop one literal at a time; keep it when the
       query turns SAT (or exhausts its budget) without it *)
    let rec shrink kept = function
      | [] -> kept
      | l :: rest -> (
        match solve_with (List.rev_append kept rest) with
        | Types.Unsat -> []
        | Types.Unsat_assuming c ->
          shrink
            (List.filter (fun k -> List.mem k c) kept)
            (List.filter (fun r -> List.mem r c) rest)
        | Types.Sat _ | Types.Unknown _ -> shrink (l :: kept) rest)
    in
    let final = shrink [] core in
    Some (List.filter (fun l -> List.mem l final) assumptions)
