module Lit = Cnf.Lit

type result =
  | Refuted of int
  | Saturated of Cnf.Lit.t list

exception Contradiction

let span s i j = List.init (j - i) (fun k -> Cdcl.trail_get s (i + k))

(* One depth-k saturation round over every variable; returns true when
   some new literal was asserted.  Raises [Contradiction] when both
   branches of some split conflict. *)
let rec round s ~depth =
  let progress = ref false in
  let assert_lit l =
    if not (Cdcl.probe_assert s l) then raise Contradiction;
    progress := true
  in
  for v = 0 to Cdcl.nvars s - 1 do
    if Cdcl.value_var s v < 0 then begin
      let branch l =
        match Cdcl.probe_push s l with
        | Cdcl.Probe_conflict -> None
        | Cdcl.Probe_ok (mark, _) ->
          (* saturate recursively inside the branch, then take
             everything implied since the split.  Nested branches pop
             their own levels, so a contradiction leaves exactly this
             one open. *)
          let implied =
            match
              while depth > 1 && round s ~depth:(depth - 1) do
                ()
              done
            with
            | () -> Some (span s mark (Cdcl.trail_size s))
            | exception Contradiction -> None
          in
          Cdcl.probe_pop s;
          implied
      in
      let pos = branch (Lit.pos v) in
      let neg = branch (Lit.neg_of_var v) in
      match pos, neg with
      | None, None -> raise Contradiction
      | None, Some _ -> assert_lit (Lit.neg_of_var v)
      | Some _, None -> assert_lit (Lit.pos v)
      | Some il, Some ir ->
        (* dilemma: assignments implied by both branches are necessary *)
        List.iter
          (fun l -> if List.mem l ir && Cdcl.value s l < 0 then assert_lit l)
          il
    end
  done;
  !progress

let saturate ?(depth = 1) f =
  let s = Cdcl.create f in
  if not (Cdcl.propagate_root s) then Refuted 0
  else begin
    let rec try_depth d =
      if d > depth then Saturated (span s 0 (Cdcl.trail_size s))
      else
        match
          while round s ~depth:d do
            ()
          done
        with
        | () -> try_depth (d + 1)
        | exception Contradiction -> Refuted d
    in
    try_depth 1
  end

let prove_unsat ?depth f =
  match saturate ?depth f with
  | Refuted _ -> true
  | Saturated _ -> false
