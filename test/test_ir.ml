(* Tests for the multi-level IR: lowering determinism (same input
   digest must produce the same output digest), provenance-chain
   recording, and cross-level equivalence of the reference designs at
   every level, pre- and post-optimization. *)

let full_pipeline =
  [ Ocapi_ir.lower_to_gate; Ocapi_ir.optimize_gates ]

(* --- lowering determinism -------------------------------------------------- *)

(* Two independently built copies of the same design share a behavioral
   digest; every pass must then produce identical output digests —
   digest-in determines digest-out, the property that makes the
   provenance chain (and gate-level result caching) sound. *)
let check_deterministic build =
  let d1 = Ocapi_ir.behavioral (build ()) in
  let d2 = Ocapi_ir.behavioral (build ()) in
  Alcotest.(check string) "behavioral digests agree" d1.Ocapi_ir.ir_digest
    d2.Ocapi_ir.ir_digest;
  let g1 = Ocapi_ir.pipeline full_pipeline d1 in
  let g2 = Ocapi_ir.pipeline full_pipeline d2 in
  Alcotest.(check string) "optimized gate digests agree" g1.Ocapi_ir.ir_digest
    g2.Ocapi_ir.ir_digest

let test_determinism_hcor () = check_deterministic Gallery.hcor
let test_determinism_dect () = check_deterministic Gallery.dect

(* --- provenance ------------------------------------------------------------ *)

let test_provenance_chain () =
  let d0 = Ocapi_ir.behavioral (Gallery.hcor ()) in
  Alcotest.(check (list string)) "fresh design has empty provenance" []
    (List.map (fun p -> p.Ocapi_ir.pr_pass) d0.Ocapi_ir.ir_provenance);
  let d = Ocapi_ir.pipeline full_pipeline d0 in
  Alcotest.(check (list string))
    "pass names recorded oldest first"
    [ "lower-to-gate"; "optimize-gates" ]
    (List.map (fun p -> p.Ocapi_ir.pr_pass) d.Ocapi_ir.ir_provenance);
  (* The chain links: the root digest heads it, each output digest is
     the next link's input digest, and the last output digest is the
     design's own. *)
  let rec check_links input = function
    | [] -> input
    | p :: rest ->
      Alcotest.(check string)
        (p.Ocapi_ir.pr_pass ^ " input digest links")
        input p.Ocapi_ir.pr_input_digest;
      check_links p.Ocapi_ir.pr_output_digest rest
  in
  let last = check_links d0.Ocapi_ir.ir_digest d.Ocapi_ir.ir_provenance in
  Alcotest.(check string) "chain ends at the design digest"
    d.Ocapi_ir.ir_digest last;
  Alcotest.(check string) "level is gate" "gate" (Ocapi_ir.level_name d)

(* A pass applied at the wrong level is a structured error, not a
   crash. *)
let test_wrong_level_rejected () =
  let d = Ocapi_ir.behavioral (Gallery.hcor ()) in
  let g = Ocapi_ir.pipeline full_pipeline d in
  match Ocapi_ir.apply Ocapi_ir.lower_to_gate g with
  | _ -> Alcotest.fail "expected Ocapi_error.Error"
  | exception Ocapi_error.Error e ->
    Alcotest.(check bool) "code is Unsupported" true
      (e.Ocapi_error.e_code = Ocapi_error.Unsupported)

(* --- cross-level equivalence ----------------------------------------------- *)

let check_equiv name a b ~cycles =
  match Ocapi_ir.check_equivalence ~cycles a b with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name (Ocapi_error.to_string e)

(* Behavioral = gate = optimized gate, token for token, on both
   reference designs — the paper's claim that one description drives
   every level.  (The RT engine's agreement with the other engines is
   the engine sweeps' job.) *)
let check_all_levels build ~cycles =
  let d = Ocapi_ir.behavioral (build ()) in
  let gate = Ocapi_ir.apply Ocapi_ir.lower_to_gate d in
  let opt = Ocapi_ir.apply Ocapi_ir.optimize_gates gate in
  check_equiv "behavioral = gate" d gate ~cycles;
  check_equiv "behavioral = optimized gate" d opt ~cycles

let test_equivalence_hcor () = check_all_levels Gallery.hcor ~cycles:120
let test_equivalence_dect () = check_all_levels Gallery.dect ~cycles:200

(* Two different designs must NOT check equivalent, and the failure is
   a structured [Mismatch] diagnostic naming a probe. *)
let test_mismatch_is_structured () =
  let a = Ocapi_ir.behavioral (Gallery.hcor ()) in
  let b = Ocapi_ir.behavioral (Gallery.dect ()) in
  match Ocapi_ir.check_equivalence ~cycles:40 a b with
  | Ok () -> Alcotest.fail "distinct designs checked equivalent"
  | Error e ->
    Alcotest.(check bool) "code is Mismatch" true
      (e.Ocapi_error.e_code = Ocapi_error.Mismatch);
    Alcotest.(check bool) "names a probe" true
      (e.Ocapi_error.e_construct <> None)

(* --- shared gate elaborations ------------------------------------------------ *)

let with_gate sys f =
  let (module E : Ocapi_engine.ENGINE) = Ocapi_engine.get "gate" in
  let ses = E.make sys in
  Fun.protect ~finally:ses.Ocapi_engine.ses_close (fun () -> f ses)

(* A fresh build of a design the table holds makes no synthesis, and
   its session still runs the design. *)
let test_fresh_build_shares_elaboration () =
  with_gate (Gallery.cpu ()) ignore;
  Ocapi_ir.reset_gate_stats ();
  let h =
    with_gate (Gallery.cpu ()) (fun ses ->
        Cycle_system.Trace.to_histories (Ocapi_engine.run ses ~cycles:48))
  in
  let s = Ocapi_ir.gate_stats () in
  Alcotest.(check int) "no synthesis" 0 s.Ocapi_ir.elaborations;
  Alcotest.(check int) "served from the table" 1 s.Ocapi_ir.hits;
  Alcotest.(check bool) "gate = interp" true
    (h = Flow.simulate ~engine:"interp" (Gallery.cpu ()) ~cycles:48)

(* Worker domains make their sessions one after the other on the
   coordinating domain: the first synthesizes, the second is served the
   same elaboration, and the report equals the serial one. *)
let test_seu_two_domains_synthesize_once () =
  let build () = Test_engines.ram_words_system ~name:"ir_seu_once" ~words:6 () in
  Ocapi_ir.reset_gate_stats ();
  let parallel =
    Ocapi_fault.seu_campaign ~engine:"gate" ~runs:40 ~seed:3 ~domains:2 ~replicate:build
      (build ()) ~cycles:32
  in
  let s = Ocapi_ir.gate_stats () in
  Alcotest.(check int) "one synthesis" 1 s.Ocapi_ir.elaborations;
  Alcotest.(check int) "one session served from the table" 1 s.Ocapi_ir.hits;
  let serial = Ocapi_fault.seu_campaign ~engine:"gate" ~runs:40 ~seed:3 (build ()) ~cycles:32 in
  Alcotest.(check (list string)) "2 domains = serial" (Test_fault.seu_lines serial)
    (Test_fault.seu_lines parallel)

(* One design more than the table holds: the least recently used one
   is evicted and elaborates again, the most recent is still served. *)
let test_gate_table_evicts () =
  let make i =
    with_gate
      (Test_engines.ram_words_system ~name:(Printf.sprintf "ir_evict_%d" i) ~words:4 ())
      ignore
  in
  Ocapi_ir.reset_gate_stats ();
  for i = 0 to Ocapi_ir.gate_capacity do
    make i
  done;
  let s = Ocapi_ir.gate_stats () in
  Alcotest.(check int) "each design elaborated" (Ocapi_ir.gate_capacity + 1)
    s.Ocapi_ir.elaborations;
  Alcotest.(check bool) "the bound evicted" true (s.Ocapi_ir.evictions >= 1);
  make Ocapi_ir.gate_capacity;
  Alcotest.(check int) "the most recent is served" (Ocapi_ir.gate_capacity + 1)
    (Ocapi_ir.gate_stats ()).Ocapi_ir.elaborations;
  make 0;
  Alcotest.(check int) "the oldest elaborates again" (Ocapi_ir.gate_capacity + 2)
    (Ocapi_ir.gate_stats ()).Ocapi_ir.elaborations

type action = Step of int | Poke of int * int | Checkpoint | Restore

let perform ses checkpoint = function
  | Step n ->
    for _ = 1 to n do
      ses.Ocapi_engine.ses_step ()
    done
  | Poke (i, bit) ->
    ses.Ocapi_engine.ses_poke_register_bit (i mod ses.Ocapi_engine.ses_register_count) ~bit
  | Checkpoint -> checkpoint := ses.Ocapi_engine.ses_checkpoint ()
  | Restore -> (
    match !checkpoint with
    | Some ck -> ck.Ocapi_engine.ck_restore ()
    | None -> Alcotest.fail "the gate engine took no checkpoint")

(* Two sessions over one elaboration, each on its own build of the cpu
   (whose RAM is lane state), stepped in turns with pokes and
   checkpoint restores, a stuck-at campaign in between: each must
   reproduce the histories it records alone. *)
let test_sessions_share_topology () =
  let script_a =
    [ Step 12; Poke (0, 3); Step 9; Checkpoint; Step 14; Poke (1, 0); Step 7; Restore; Step 30 ]
  in
  let script_b =
    [ Step 5; Checkpoint; Step 17; Poke (2, 5); Step 11; Restore; Poke (0, 1); Step 40 ]
  in
  let solo script =
    with_gate (Gallery.cpu ()) (fun ses ->
        let ck = ref None in
        List.iter (perform ses ck) script;
        ses.Ocapi_engine.ses_histories ())
  in
  let solo_a = solo script_a and solo_b = solo script_b in
  Alcotest.(check bool) "the scripts differ" false (solo_a = solo_b);
  Ocapi_ir.reset_gate_stats ();
  with_gate (Gallery.cpu ()) (fun a ->
      with_gate (Gallery.cpu ()) (fun b ->
          Alcotest.(check int) "both sessions served from the table" 2
            (Ocapi_ir.gate_stats ()).Ocapi_ir.hits;
          let ck_a = ref None and ck_b = ref None in
          let rec turns xs ys =
            match (xs, ys) with
            | x :: xs, y :: ys -> (a, ck_a, x) :: (b, ck_b, y) :: turns xs ys
            | xs, [] -> List.map (fun x -> (a, ck_a, x)) xs
            | [], ys -> List.map (fun y -> (b, ck_b, y)) ys
          in
          List.iteri
            (fun i (ses, ck, action) ->
              if i = 8 then
                ignore
                  (Ocapi_fault.stuck_at_system ~max_faults:60 ~seed:1 ~domains:2
                     ~macro_of_kernel:(Gallery.macro_of_kernel "cpu") (Gallery.cpu ())
                     ~cycles:24);
              perform ses ck action)
            (turns script_a script_b);
          Alcotest.(check bool) "session a = its solo run" true
            (a.Ocapi_engine.ses_histories () = solo_a);
          Alcotest.(check bool) "session b = its solo run" true
            (b.Ocapi_engine.ses_histories () = solo_b)))

let suite =
  [
    Alcotest.test_case "lowering determinism: hcor" `Quick
      test_determinism_hcor;
    Alcotest.test_case "lowering determinism: dect" `Quick
      test_determinism_dect;
    Alcotest.test_case "provenance chain links" `Quick test_provenance_chain;
    Alcotest.test_case "wrong level is a structured error" `Quick
      test_wrong_level_rejected;
    Alcotest.test_case "equivalence across levels: hcor" `Quick
      test_equivalence_hcor;
    Alcotest.test_case "equivalence across levels: dect" `Quick
      test_equivalence_dect;
    Alcotest.test_case "mismatch is a structured error" `Quick
      test_mismatch_is_structured;
    Alcotest.test_case "gate: a fresh build shares the elaboration" `Quick
      test_fresh_build_shares_elaboration;
    Alcotest.test_case "gate: 2-domain SEU campaign synthesizes once" `Quick
      test_seu_two_domains_synthesize_once;
    Alcotest.test_case "gate: the elaboration table evicts" `Quick
      test_gate_table_evicts;
    Alcotest.test_case "gate: sessions share a topology, not lane state" `Quick
      test_sessions_share_topology;
  ]
