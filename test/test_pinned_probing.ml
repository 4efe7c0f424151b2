(* Answers of recursive learning, Stålmarck saturation and failed-literal
   probing, recorded on the standalone counter-based propagator the three
   ran on before they moved onto the Cdcl probe API.  Recursive learning
   is pinned through the unit-propagation closure of f ∧ assumptions ∧
   necessary: the order of the necessary list follows propagation order.
   The depth-2 closures were re-recorded after the move, because a branch
   now also collects the consequences of the common literals its nested
   splits assert.  On this corpus every UNSAT answer stayed the same and
   every new closure contains the old one.  The probe row was re-recorded
   when preprocessing moved onto one queue-driven clause store: the same
   38 formulas are refuted, and one satisfiable formula keeps 40 clauses
   where it kept 38 (three others shrink).

   The last two rows run on the corpus extended by two larger miters,
   whose many binary clauses give recursive learning and elimination
   more to do; they were recorded before signature-filtered
   subsumption and the binary-implication check in recursive learning
   went in, which must change no answer. *)

module L = Cnf.Lit

let lits ls =
  String.concat "," (List.map (fun l -> string_of_int (L.to_dimacs l)) ls)

let sorted ls = lits (List.sort L.compare ls)
let miter a b = fst (Circuit.Miter.to_cnf a b)

(* 300 random 3-CNFs around the phase transition, php(4,3), and two
   small equivalent-circuit miters *)
let corpus =
  lazy
    (List.init 300 (fun seed ->
         let nvars = 8 + (seed mod 13) in
         let ratio = 3.0 +. (0.25 *. float_of_int (seed mod 9)) in
         Test_watches.random_3sat ~seed ~nvars ~ratio)
     @ [
       Test_cdcl.php 4 3;
       (let c = Circuit.Generators.majority3 () in
        miter c (Circuit.Transform.demorgan ~seed:4 c));
       miter
         (Circuit.Generators.ripple_adder ~bits:2)
         (Circuit.Generators.kogge_stone_adder ~bits:2);
     ])

let corpus_with_binaries =
  lazy
    (Lazy.force corpus
     @ [
       (let c = Circuit.Generators.barrel_shifter ~bits:8 in
        miter c (Circuit.Transform.rewrite_xor c));
       miter
         (Circuit.Generators.ripple_adder ~bits:8)
         (Circuit.Generators.kogge_stone_adder ~bits:8);
     ])

let closure f units =
  let s = Sat.Cdcl.create f in
  List.iter (fun l -> Sat.Cdcl.add_clause s [ l ]) units;
  if not (Sat.Cdcl.propagate_root s) then "conflict"
  else sorted (List.init (Sat.Cdcl.trail_size s) (Sat.Cdcl.trail_get s))

let two_assumptions f =
  let rng = Sat.Rng.create (Cnf.Formula.nvars f) in
  let n = Cnf.Formula.nvars f in
  let a = Sat.Rng.int rng n in
  let b = (a + 1 + Sat.Rng.int rng (n - 1)) mod n in
  [ L.of_var a (Sat.Rng.bool rng); L.of_var b (Sat.Rng.bool rng) ]

let rl ~depth ~with_assumptions f =
  let assumptions = if with_assumptions then two_assumptions f else [] in
  let r = Sat.Recursive_learning.learn ~assumptions ~depth f in
  Printf.sprintf "%b %d %s" r.unsat r.splits
    (closure f (assumptions @ r.necessary))

let stalmarck ~depth f =
  match Sat.Stalmarck.saturate ~depth f with
  | Sat.Stalmarck.Refuted d -> Printf.sprintf "R%d" d
  | Sat.Stalmarck.Saturated forced -> "S" ^ sorted forced

let clauses cs =
  String.concat ";" (List.map (fun c -> lits (Cnf.Clause.to_list c)) cs)

let fixes (s : Sat.Preprocess.simplified) =
  let fix (v, b) = Printf.sprintf "%d%c" v (if b then 'T' else 'F') in
  String.concat "," (List.map fix s.fix)

let probe f =
  match Sat.Preprocess.run ~probe_failed_literals:true f with
  | Sat.Preprocess.Unsat -> "UNSAT"
  | Sat.Preprocess.Simplified s ->
    Printf.sprintf "%s|%s|%d"
      (clauses (Array.to_list (Cnf.Formula.clauses s.formula)))
      (fixes s) s.stats.failed_literals

(* the default run: elimination on, probing off *)
let preprocess f =
  match Sat.Preprocess.run f with
  | Sat.Preprocess.Unsat -> "UNSAT"
  | Sat.Preprocess.Simplified s ->
    let frame (e : Sat.Preprocess.elimination) =
      Printf.sprintf "%d:%s/%s" e.evar (clauses e.pos) (clauses e.neg)
    in
    Printf.sprintf "%s|%s|%s|%s"
      (clauses (Array.to_list (Cnf.Formula.clauses s.formula)))
      (fixes s)
      (String.concat " " (List.map frame s.elim))
      (Format.asprintf "%a" Sat.Preprocess.pp_stats s.stats)

let negative r =
  String.starts_with ~prefix:"true" r || r.[0] = 'R' || r = "UNSAT"

(* query, corpus, count of UNSAT / refuted answers, MD5 of all
   renderings.  The counter-based propagator gave the depth-2 rows the
   same counts and digests 15553a7cb27e4f0632b5e75e6e60a4cc and
   3d8fdfb4ad7e5f5e6c8d53d2e3d2cde3. *)
let recorded =
  [
    ("rl depth 1", corpus, rl ~depth:1 ~with_assumptions:false, 1,
     "d849b18e0090d592eb9ac1acefeb3465");
    ("rl depth 1 + assumptions", corpus, rl ~depth:1 ~with_assumptions:true, 155,
     "e315e3fa5ec709c64bb1ed265c26a7f9");
    ("rl depth 2", corpus, rl ~depth:2 ~with_assumptions:false, 58,
     "52224d75e3fbe41d140324884c1ad72d");
    ("rl depth 2 + assumptions", corpus, rl ~depth:2 ~with_assumptions:true, 157,
     "18ad71cc485a24af7f2d9086cfdb378c");
    ("stalmarck depth 1", corpus, stalmarck ~depth:1, 1,
     "d5e1b3fc075acfcc00b5ec742f5e641f");
    ("stalmarck depth 2", corpus, stalmarck ~depth:2, 58,
     "1822e7bcc1ca42604c0361af7e7c451c");
    ("probe", corpus, probe, 38, "433cb8fecebc938203b6332792ba7851");
    ("rl depth 1, miters", corpus_with_binaries,
     rl ~depth:1 ~with_assumptions:false, 1, "6a7ef65440f935e4e68a156702e269c4");
    ("preprocess", corpus_with_binaries, preprocess, 21,
     "65566306bfeb2847d67726650b06395d");
  ]

let pinned () =
  List.iter
    (fun (name, corpus, query, negatives, digest) ->
       let rs = List.map query (Lazy.force corpus) in
       Alcotest.(check (pair int string)) name (negatives, digest)
         ( List.length (List.filter negative rs),
           Digest.to_hex (Digest.string (String.concat "\n" rs)) ))
    recorded

let suite = [ Th.case "answers pinned across the propagator move" pinned ]
