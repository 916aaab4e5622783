(* Tests for the untimed data-flow substrate. *)

let s8 = Fixed.signed ~width:8 ~frac:0
let fx n = Fixed.of_int s8 n
let ints l = List.map fx l

let test_source_sink_map () =
  let g = Dataflow.create "pipe" in
  let src = Dataflow.add_process g (Dataflow.Kernel.source "src" (ints [ 1; 2; 3 ])) in
  let double =
    Dataflow.add_process g
      (Dataflow.Kernel.map1 "double" (fun v -> Fixed.resize s8 (Fixed.add v v)))
  in
  let sink_k, drained = Dataflow.Kernel.sink "sink" in
  let sink = Dataflow.add_process g sink_k in
  ignore (Dataflow.connect g (src, "out") (double, "in"));
  ignore (Dataflow.connect g (double, "out") (sink, "in"));
  let stats = Dataflow.run g in
  Alcotest.(check bool) "not deadlocked" false stats.Dataflow.deadlocked;
  Alcotest.(check (list int)) "doubled" [ 2; 4; 6 ]
    (List.map Fixed.to_int (drained ()));
  Alcotest.(check int) "nine firings" 9 stats.Dataflow.steps;
  Alcotest.(check int) "per-process counts" 3
    (List.assoc "double" stats.Dataflow.firings)

let test_firing_rule () =
  let g = Dataflow.create "rule" in
  let src = Dataflow.add_process g (Dataflow.Kernel.source "src" (ints [ 5 ])) in
  let k =
    Dataflow.Kernel.create "pairwise" ~inputs:[ ("in", 2) ] ~outputs:[ ("out", 1) ]
      (fun consumed ->
        match consumed with
        | [ ("in", [ a; b ]) ] -> [ ("out", [ Fixed.resize s8 (Fixed.add a b) ]) ]
        | _ -> Alcotest.fail "shape")
  in
  let p = Dataflow.add_process g k in
  let ch = Dataflow.connect g (src, "out") (p, "in") in
  Alcotest.(check bool) "not fireable with 0 tokens" false (Dataflow.fireable g p);
  ignore (Dataflow.run g) (* source fires once -> 1 token *);
  Alcotest.(check bool) "not fireable with 1 token" false (Dataflow.fireable g p);
  Dataflow.initial_tokens g ch [ fx 7 ];
  Alcotest.(check bool) "fireable with 2" true (Dataflow.fireable g p);
  Dataflow.fire g p;
  Alcotest.(check int) "tokens consumed" 0 (Dataflow.channel_depth g ch)

let test_fire_unsatisfied_raises () =
  let g = Dataflow.create "raise" in
  let p = Dataflow.add_process g (Dataflow.Kernel.map1 "m" Fun.id) in
  (* No channel on the input at all. *)
  match Dataflow.fire g p with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "fired without tokens"

let test_deadlock_detection () =
  (* Two processes in a token-free cycle: the "apparent deadlock" of
     section 4 (data-flow needs initial tokens here). *)
  let g = Dataflow.create "cycle" in
  let mk name = Dataflow.add_process g (Dataflow.Kernel.map1 name Fun.id) in
  let a = mk "a" and b = mk "b" in
  ignore (Dataflow.connect g (a, "out") (b, "in"));
  let back = Dataflow.connect g (b, "out") (a, "in") in
  let stats = Dataflow.run g in
  Alcotest.(check int) "nothing fires" 0 stats.Dataflow.steps;
  Alcotest.(check bool) "no tokens, not reported as deadlock" false
    stats.Dataflow.deadlocked;
  (* One initial token makes the loop turn forever (budget-bounded). *)
  Dataflow.initial_tokens g back [ fx 1 ];
  let stats = Dataflow.run ~max_firings:100 g in
  Alcotest.(check int) "loop turns" 100 stats.Dataflow.steps

let test_stuck_tokens_are_deadlock () =
  let g = Dataflow.create "stuck" in
  let k =
    Dataflow.Kernel.create "needs2" ~inputs:[ ("in", 2) ] ~outputs:[]
      (fun _ -> [])
  in
  let p = Dataflow.add_process g k in
  let src = Dataflow.add_process g (Dataflow.Kernel.source "s" (ints [ 1 ])) in
  ignore (Dataflow.connect g (src, "out") (p, "in"));
  let stats = Dataflow.run g in
  Alcotest.(check bool) "deadlocked" true stats.Dataflow.deadlocked

let test_production_validation () =
  let g = Dataflow.create "bad" in
  let k =
    Dataflow.Kernel.create "liar" ~inputs:[] ~outputs:[ ("out", 2) ]
      (fun _ -> [ ("out", [ fx 1 ]) ])
  in
  let p = Dataflow.add_process g k in
  match Dataflow.fire g p with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "wrong production accepted"

let test_connect_validation () =
  let g = Dataflow.create "conn" in
  let a = Dataflow.add_process g (Dataflow.Kernel.map1 "a" Fun.id) in
  let b = Dataflow.add_process g (Dataflow.Kernel.map1 "b" Fun.id) in
  (match Dataflow.connect g (a, "nope") (b, "in") with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "bad src port accepted");
  ignore (Dataflow.connect g (a, "out") (b, "in"));
  match Dataflow.connect g (a, "out") (b, "in") with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "double-driven input accepted"

(* --- SDF analysis -------------------------------------------------------- *)

let test_repetition_vector_multirate () =
  (* a --2:3--> b : q(a) * 2 = q(b) * 3 -> q = (3, 2). *)
  let g = Dataflow.create "sdf" in
  let a =
    Dataflow.add_process g
      (Dataflow.Kernel.create "a" ~inputs:[] ~outputs:[ ("out", 2) ] (fun _ ->
           [ ("out", [ fx 0; fx 0 ]) ]))
  in
  let b =
    Dataflow.add_process g
      (Dataflow.Kernel.create "b" ~inputs:[ ("in", 3) ] ~outputs:[] (fun _ -> []))
  in
  ignore (Dataflow.connect g (a, "out") (b, "in"));
  match Dataflow.repetition_vector g with
  | Some reps ->
    Alcotest.(check int) "q(a)" 3 (List.assoc "a" reps);
    Alcotest.(check int) "q(b)" 2 (List.assoc "b" reps)
  | None -> Alcotest.fail "consistent graph rejected"

let test_repetition_vector_chain () =
  let g = Dataflow.create "chain" in
  let mk name ins outs beh = Dataflow.add_process g (Dataflow.Kernel.create name ~inputs:ins ~outputs:outs beh) in
  let a = mk "a" [] [ ("out", 1) ] (fun _ -> [ ("out", [ fx 0 ]) ]) in
  let b = mk "b" [ ("in", 2) ] [ ("out", 3) ] (fun _ -> [ ("out", [ fx 0; fx 0; fx 0 ]) ]) in
  let c = mk "c" [ ("in", 1) ] [] (fun _ -> []) in
  ignore (Dataflow.connect g (a, "out") (b, "in"));
  ignore (Dataflow.connect g (b, "out") (c, "in"));
  match Dataflow.repetition_vector g with
  | Some reps ->
    Alcotest.(check int) "q(a)" 2 (List.assoc "a" reps);
    Alcotest.(check int) "q(b)" 1 (List.assoc "b" reps);
    Alcotest.(check int) "q(c)" 3 (List.assoc "c" reps)
  | None -> Alcotest.fail "chain rejected"

let test_inconsistent_graph () =
  (* a -1:1-> b and a -2:1-> b is inconsistent. *)
  let g = Dataflow.create "bad_sdf" in
  let a =
    Dataflow.add_process g
      (Dataflow.Kernel.create "a" ~inputs:[]
         ~outputs:[ ("o1", 1); ("o2", 2) ]
         (fun _ -> [ ("o1", [ fx 0 ]); ("o2", [ fx 0; fx 0 ]) ]))
  in
  let b =
    Dataflow.add_process g
      (Dataflow.Kernel.create "b"
         ~inputs:[ ("i1", 1); ("i2", 1) ]
         ~outputs:[] (fun _ -> []))
  in
  ignore (Dataflow.connect g (a, "o1") (b, "i1"));
  ignore (Dataflow.connect g (a, "o2") (b, "i2"));
  Alcotest.(check bool) "inconsistent rejected" true
    (Dataflow.repetition_vector g = None)

let test_single_iteration_schedule () =
  let g = Dataflow.create "sched" in
  let a =
    Dataflow.add_process g
      (Dataflow.Kernel.create "a" ~inputs:[] ~outputs:[ ("out", 1) ] (fun _ ->
           [ ("out", [ fx 0 ]) ]))
  in
  let b =
    Dataflow.add_process g
      (Dataflow.Kernel.create "b" ~inputs:[ ("in", 2) ] ~outputs:[] (fun _ -> []))
  in
  ignore (Dataflow.connect g (a, "out") (b, "in"));
  match Dataflow.single_iteration_schedule g with
  | Some order ->
    Alcotest.(check (list string)) "a a b" [ "a"; "a"; "b" ] order
  | None -> Alcotest.fail "schedulable graph rejected"

let test_kernel_reset_commit () =
  (* A stateful kernel with staged commits behaves transactionally. *)
  let state = ref 0 in
  let staged = ref 0 in
  let k =
    Dataflow.Kernel.create "tx" ~inputs:[ ("in", 1) ] ~outputs:[ ("out", 1) ]
      ~commit:(fun () -> state := !staged)
      ~reset:(fun () ->
        state := 0;
        staged := 0)
      (fun consumed ->
        match consumed with
        | [ ("in", [ v ]) ] ->
          staged := !state + Fixed.to_int v;
          [ ("out", [ fx !state ]) ]
        | _ -> assert false)
  in
  let g = Dataflow.create "tx_g" in
  let src = Dataflow.add_process g (Dataflow.Kernel.source "s" (ints [ 1; 2; 3 ])) in
  let p = Dataflow.add_process g k in
  let sink_k, drained = Dataflow.Kernel.sink "d" in
  let sink = Dataflow.add_process g sink_k in
  ignore (Dataflow.connect g (src, "out") (p, "in"));
  ignore (Dataflow.connect g (p, "out") (sink, "in"));
  ignore (Dataflow.run g);
  (* Each firing outputs the pre-commit state. *)
  Alcotest.(check (list int)) "pre-commit values" [ 0; 1; 3 ]
    (List.map Fixed.to_int (drained ()));
  Alcotest.(check int) "final state" 6 !state;
  k.Dataflow.Kernel.k_reset ();
  Alcotest.(check int) "reset" 0 !state

let suite =
  [
    Alcotest.test_case "source/map/sink pipeline" `Quick test_source_sink_map;
    Alcotest.test_case "firing rule" `Quick test_firing_rule;
    Alcotest.test_case "fire unsatisfied raises" `Quick test_fire_unsatisfied_raises;
    Alcotest.test_case "token-free cycle" `Quick test_deadlock_detection;
    Alcotest.test_case "stuck tokens are deadlock" `Quick test_stuck_tokens_are_deadlock;
    Alcotest.test_case "production validation" `Quick test_production_validation;
    Alcotest.test_case "connect validation" `Quick test_connect_validation;
    Alcotest.test_case "repetition vector (multirate)" `Quick test_repetition_vector_multirate;
    Alcotest.test_case "repetition vector (chain)" `Quick test_repetition_vector_chain;
    Alcotest.test_case "inconsistent SDF graph" `Quick test_inconsistent_graph;
    Alcotest.test_case "single-iteration schedule" `Quick test_single_iteration_schedule;
    Alcotest.test_case "kernel commit/reset" `Quick test_kernel_reset_commit;
  ]
