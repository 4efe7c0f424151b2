(* Sequential equivalence checking of two DFF BENCH netlists.

   sec_tool A.bench B.bench [--max-k K] [--bound B] [--jobs N]
            [--metrics FILE.json] [--trace FILE.jsonl] *)

open Cmdliner

let run a b max_k bound jobs metrics_path trace_path =
  let obs = Obs.setup ~tool:"sec_tool" metrics_path trace_path in
  let load =
    Obs.load ~tool:"sec_tool" Circuit.Bench_format.parse_sequential_file
  in
  let s1 = load a in
  let s2 = load b in
  match
    Eda.Seq_equiv.check ?metrics:obs.Obs.metrics ?trace:obs.Obs.trace ~max_k
      ~bound ~jobs s1 s2
  with
  | Eda.Seq_equiv.Equivalent k ->
    Printf.printf "EQUIVALENT for all input sequences (k=%d induction)\n" k;
    exit 0
  | Eda.Seq_equiv.Bounded_equivalent n ->
    Printf.printf "no difference within %d cycles (not proven beyond)\n" n;
    exit 3
  | Eda.Seq_equiv.Different frames ->
    Printf.printf "DIFFERENT: distinguishing sequence of %d cycles\n"
      (List.length frames);
    List.iteri
      (fun t f ->
         let bits =
           String.init (Array.length f) (fun i -> if f.(i) then '1' else '0')
         in
         Printf.printf "  cycle %d: %s\n" t bits)
      frames;
    exit 1

let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"A" ~doc:"first design")
let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"B" ~doc:"second design")
let max_k = Arg.(value & opt int 4 & info [ "max-k" ] ~doc:"induction depth limit")
let bound = Arg.(value & opt int 16 & info [ "bound" ] ~doc:"bounded-search fallback depth")

let jobs =
  Arg.(value & opt int 1
       & info [ "jobs" ]
         ~doc:"with 2 or more, race the induction chain against the \
               bounded search on separate domains")

let cmd =
  Cmd.v
    (Cmd.info "sec_tool" ~doc:"sequential equivalence checker")
    Term.(const run $ a $ b $ max_k $ bound $ jobs $ Obs.metrics_term
          $ Obs.trace_term)

let () = exit (Cmd.eval cmd)
