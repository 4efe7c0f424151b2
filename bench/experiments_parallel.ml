(* Experiment E23: parallel portfolio solving with clause sharing. *)

module T = Sat.Types
module P = Sat.Portfolio

(* E23 — one formula, N diversified CDCL workers racing on OCaml domains,
   exchanging low-LBD learned clauses through a shared pool.  Sequential
   baseline vs portfolio with sharing on and off. *)
let e23 () =
  Util.header "E23 parallel portfolio with learned-clause sharing"
    "paper: Sec. 6 (search diversification; portfolio solvers built on \
     [27, 27a])";
  let jobs = 4 in
  Util.row "workers: %d (host has %d core(s) - domains are time-shared)@.@."
    jobs (Domain.recommended_domain_count ());
  Util.row "%-18s %-6s %8s %8s %8s %7s %7s %9s@." "instance" "ans" "seq"
    "share" "noshare" "spdup" "confl" "exp/imp";
  Util.line ();
  let speedups = ref [] in
  let case name f =
    let seq_outcome, seq_t =
      Util.time (fun () -> Sat.Cdcl.solve (Sat.Cdcl.create (f ())))
    in
    let run share =
      P.solve
        ~options:
          {
            P.jobs;
            config = T.default;
            sharing = { P.default_sharing with P.share };
          }
        (f ())
    in
    let rs = run true in
    let rn = run false in
    let spdup = seq_t /. rs.P.time_seconds in
    speedups := spdup :: !speedups;
    Util.row "%-18s %-6s %7.3fs %7.3fs %7.3fs %6.2fx %7d %4d/%-4d@." name
      (Util.outcome_label seq_outcome)
      seq_t rs.P.time_seconds rn.P.time_seconds spdup
      rs.P.stats.T.conflicts rs.P.stats.T.exported rs.P.stats.T.imported
  in
  case "php(8,7)" (fun () -> Util.pigeonhole 8 7);
  (* 200-variable instances just below the phase transition: sequential
     runtimes are heavy-tailed, which is where a diversified portfolio
     pays off even when the domains time-share one core *)
  List.iter
    (fun seed ->
       case
         (Printf.sprintf "3sat-%d@4.1" seed)
         (fun () -> Util.random_3sat ~seed ~nvars:200 ~ratio:4.1))
    [ 7; 12; 16; 5 ];
  let sorted = List.sort compare !speedups in
  let median = List.nth sorted (List.length sorted / 2) in
  Util.row "@.median wall-clock speedup vs sequential: %.2fx@." median;
  Util.row
    "sharing column vs noshare shows the effect of LBD<=%d clause exchange;@ \
     SAT instances gain from diversification (some worker finds a model@ \
     early), UNSAT instances pay the time-sharing cost on a 1-core host@."
    P.default_sharing.P.max_lbd
