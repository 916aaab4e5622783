(* Tests for the domain pool and the parallel campaign paths: the pool
   itself (identity merge, per-worker states, worker failure), bit-identity of
   parallel fault campaigns against the serial reports on multiple
   engines, and cross-domain telemetry aggregation. *)

(* --- the pool itself ------------------------------------------------------- *)

(* Results land in task-index order whatever the pool size: the merged
   array must equal the serial map exactly. *)
let test_pool_identity () =
  let tasks = 97 in
  let expect = Array.init tasks (fun i -> (i * i) mod 31) in
  List.iter
    (fun domains ->
      let got =
        Ocapi_parallel.map_tasks ~domains
          ~make_state:(fun _k -> ())
          ~tasks
          ~f:(fun () i -> (i * i) mod 31)
          ()
      in
      Alcotest.(check (array int))
        (Printf.sprintf "domains %d" domains)
        expect got)
    [ 1; 2; 3; 4 ]

let test_pool_states_are_per_worker () =
  (* Each worker only ever sees the state built for its index, so
     mutating a per-worker counter from tasks is race-free, and the
     per-worker totals account for every task exactly once. *)
  let domains = 4 and tasks = 200 in
  let states = ref [] in
  let _ =
    Ocapi_parallel.map_tasks ~domains
      ~make_state:(fun _k ->
        let r = ref 0 in
        states := r :: !states;
        r)
      ~tasks
      ~f:(fun acc _i -> incr acc)
      ()
  in
  Alcotest.(check int) "one state per worker" domains (List.length !states);
  Alcotest.(check int)
    "every task ran exactly once" tasks
    (List.fold_left (fun a r -> a + !r) 0 !states)

let test_pool_worker_error () =
  match
    Ocapi_parallel.map_tasks ~domains:3
      ~make_state:(fun _ -> ())
      ~tasks:30
      ~f:(fun () i -> if i = 17 then failwith "boom" else i)
      ()
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
    Alcotest.(check string) "the task's own exception" "boom" msg
  | exception e ->
    Alcotest.failf "expected Failure, got %s" (Printexc.to_string e)

(* --- parallel campaigns are bit-identical to serial ------------------------ *)

let check_seu_parallel engine sys_of =
  let run domains =
    Ocapi_fault.seu_campaign ~engine ~runs:40 ~seed:11 ~domains
      ~replicate:sys_of (sys_of ()) ~cycles:20
  in
  let serial = run 1 in
  Alcotest.(check bool)
    "campaign classified something" true
    (serial.Ocapi_fault.seu_masked + serial.Ocapi_fault.seu_sdc
     + serial.Ocapi_fault.seu_detected
    = 40);
  List.iter
    (fun domains ->
      let par = run domains in
      Alcotest.(check bool)
        (Printf.sprintf "%s report at %d domains = serial" engine domains)
        true (par = serial))
    [ 2; 4 ]

let test_seu_parallel_compiled () = check_seu_parallel "compiled" Gallery.dect
let test_seu_parallel_interp () = check_seu_parallel "interp" Gallery.hcor

let test_seu_parallel_needs_replicate () =
  match
    Ocapi_fault.seu_campaign ~runs:4 ~domains:2 (Gallery.dect ()) ~cycles:8
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_stuck_at_parallel () =
  let run domains =
    Ocapi_fault.stuck_at_system ~max_faults:60 ~seed:5 ~domains
      (Gallery.hcor ()) ~cycles:16
  in
  let serial = run 1 in
  List.iter
    (fun domains ->
      let par = run domains in
      Alcotest.(check bool)
        (Printf.sprintf "stuck-at report at %d domains = serial" domains)
        true (par = serial))
    [ 2; 4 ]

(* --- cross-domain telemetry ------------------------------------------------ *)

(* The campaign counters of a parallel run, merged at join, must equal
   the serial run's counters exactly. *)
let test_parallel_telemetry_counters () =
  let counters domains =
    Ocapi_obs.reset ();
    Ocapi_obs.enable ();
    ignore
      (Ocapi_fault.seu_campaign ~engine:"compiled" ~runs:30 ~seed:3 ~domains
         ~replicate:Gallery.dect (Gallery.dect ()) ~cycles:16);
    let snap =
      List.filter_map
        (fun (name, v) ->
          match v with
          | Ocapi_obs.Counter_v n
            when String.length name >= 9 && String.sub name 0 9 = "fault.seu" ->
            Some (name, n)
          | _ -> None)
        (Ocapi_obs.snapshot ())
    in
    Ocapi_obs.disable ();
    Ocapi_obs.reset ();
    snap
  in
  let serial = counters 1 in
  let par = counters 4 in
  Alcotest.(check bool) "campaign counted runs" true (serial <> []);
  Alcotest.(check int)
    "serial counters total 30" 30
    (List.fold_left (fun a (_, n) -> a + n) 0 serial);
  Alcotest.(check (list (pair string int))) "merged = serial" serial par

let suite =
  [
    Alcotest.test_case "pool merge identity" `Quick test_pool_identity;
    Alcotest.test_case "pool per-worker states" `Quick
      test_pool_states_are_per_worker;
    Alcotest.test_case "pool worker error" `Quick test_pool_worker_error;
    Alcotest.test_case "SEU parallel = serial (compiled)" `Quick
      test_seu_parallel_compiled;
    Alcotest.test_case "SEU parallel = serial (interp)" `Quick
      test_seu_parallel_interp;
    Alcotest.test_case "SEU domains>1 needs replicate" `Quick
      test_seu_parallel_needs_replicate;
    Alcotest.test_case "stuck-at parallel = serial" `Quick
      test_stuck_at_parallel;
    Alcotest.test_case "parallel telemetry merge" `Quick
      test_parallel_telemetry_counters;
  ]
