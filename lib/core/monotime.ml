(* Wall clock clamped monotone.  OCaml's stdlib exposes no monotonic
   clock and this project adds no C stubs, so [Unix.gettimeofday] is
   clamped through an atomic max: [now_s] never goes backwards even if
   the wall clock is stepped.  The float is stored boxed; the CAS
   compares the box we just read, so a lost race simply retries. *)

let last = Atomic.make neg_infinity

let rec clamp t =
  let prev = Atomic.get last in
  if t <= prev then prev
  else if Atomic.compare_and_set last prev t then t
  else clamp t

let now_s () = clamp (Unix.gettimeofday ())
let epoch = now_s ()
let since_start_s () = now_s () -. epoch
let past = function Some d -> now_s () >= d | None -> false
