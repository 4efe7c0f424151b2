(* The executor (Sat.Exec): nested groups, pushed tasks, slots and
   failures on a pool smaller than the groups it serves. *)

module E = Sat.Exec

let nested_groups_on_a_small_pool () =
  (* one pool domain, groups of width 3 whose tasks push children and
     run groups of their own: every task runs once, in a slot below its
     group's width, and nothing deadlocks *)
  E.with_pool 1 (fun pool ->
      let ran = Atomic.make 0 in
      let leaf width ctx =
        if E.slot ctx >= width then Alcotest.fail "slot out of range";
        Atomic.incr ran
      in
      let inner ctx =
        leaf 3 ctx;
        E.run pool ~width:2 [ leaf 2; leaf 2 ]
      in
      let outer ctx =
        leaf 3 ctx;
        E.push ctx inner;
        E.push ctx inner
      in
      E.run pool ~width:3 (List.init 4 (fun _ -> outer));
      (* 4 outer + 8 inner, each inner running 2 leaves *)
      Alcotest.(check int) "every task ran" (4 + 8 + 16) (Atomic.get ran))

let tasks_keep_their_dealt_slots () =
  (* with no pool domain the caller runs everything, adopting each free
     slot in turn, so task i runs in slot i mod width *)
  E.with_pool 0 (fun pool ->
      let seen = Array.make 6 (-1) in
      E.run pool ~width:3 (List.init 6 (fun i ctx -> seen.(i) <- E.slot ctx));
      Alcotest.(check (array int)) "dealt slots" [| 0; 1; 2; 0; 1; 2 |] seen)

let failure_reraised_after_join () =
  E.with_pool 1 (fun pool ->
      let finished = Atomic.make 0 in
      Alcotest.check_raises "first failure re-raised" (Failure "task")
        (fun () ->
           E.run pool ~width:2
             [ (fun _ -> failwith "task");
               (fun _ -> Atomic.incr finished) ]);
      (* the pool survives the failure *)
      E.run pool ~width:2 [ (fun _ -> Atomic.incr finished) ];
      Alcotest.(check bool) "pool still serves" true (Atomic.get finished >= 1))

let suite =
  [
    Th.case "nested groups on a small pool" nested_groups_on_a_small_pool;
    Th.case "tasks keep their dealt slots" tasks_keep_their_dealt_slots;
    Th.case "failure re-raised after the join" failure_reraised_after_join;
  ]
