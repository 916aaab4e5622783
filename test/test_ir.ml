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
  let r1 = Ocapi_ir.apply Ocapi_ir.lower_to_rtl d1 in
  let r2 = Ocapi_ir.apply Ocapi_ir.lower_to_rtl d2 in
  Alcotest.(check string) "rtl digests agree" r1.Ocapi_ir.ir_digest
    r2.Ocapi_ir.ir_digest;
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

let test_pass_registry () =
  Alcotest.(check (list string))
    "registry names"
    [ "lower-to-rtl"; "lower-to-gate"; "optimize-gates" ]
    (Ocapi_ir.pass_names ());
  List.iter
    (fun n ->
      match Ocapi_ir.find_pass n with
      | Some p -> Alcotest.(check string) "find_pass name" n p.Ocapi_ir.pass_name
      | None -> Alcotest.failf "pass %S not found" n)
    (Ocapi_ir.pass_names ());
  Alcotest.(check bool) "unknown pass" true (Ocapi_ir.find_pass "fold" = None)

(* A pass applied at the wrong level is a structured error, not a
   crash. *)
let test_wrong_level_rejected () =
  let d = Ocapi_ir.behavioral (Gallery.hcor ()) in
  let g = Ocapi_ir.pipeline full_pipeline d in
  match Ocapi_ir.apply Ocapi_ir.lower_to_rtl g with
  | _ -> Alcotest.fail "expected Ocapi_error.Error"
  | exception Ocapi_error.Error e ->
    Alcotest.(check bool) "code is Unsupported" true
      (e.Ocapi_error.e_code = Ocapi_error.Unsupported)

(* --- cross-level equivalence ----------------------------------------------- *)

let check_equiv name a b ~cycles =
  match Ocapi_ir.check_equivalence ~cycles a b with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name (Ocapi_error.to_string e)

(* Behavioral = RTL = gate = optimized gate, token for token, on both
   reference designs — the paper's claim that one description drives
   every level. *)
let check_all_levels build ~cycles =
  let d = Ocapi_ir.behavioral (build ()) in
  let rtl = Ocapi_ir.apply Ocapi_ir.lower_to_rtl d in
  let gate = Ocapi_ir.apply Ocapi_ir.lower_to_gate d in
  let opt = Ocapi_ir.apply Ocapi_ir.optimize_gates gate in
  check_equiv "behavioral = rtl" d rtl ~cycles;
  check_equiv "behavioral = gate" d gate ~cycles;
  check_equiv "behavioral = optimized gate" d opt ~cycles;
  check_equiv "rtl = gate" rtl gate ~cycles

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

let suite =
  [
    Alcotest.test_case "lowering determinism: hcor" `Quick
      test_determinism_hcor;
    Alcotest.test_case "lowering determinism: dect" `Quick
      test_determinism_dect;
    Alcotest.test_case "provenance chain links" `Quick test_provenance_chain;
    Alcotest.test_case "pass registry" `Quick test_pass_registry;
    Alcotest.test_case "wrong level is a structured error" `Quick
      test_wrong_level_rejected;
    Alcotest.test_case "equivalence across levels: hcor" `Quick
      test_equivalence_hcor;
    Alcotest.test_case "equivalence across levels: dect" `Quick
      test_equivalence_dect;
    Alcotest.test_case "mismatch is a structured error" `Quick
      test_mismatch_is_structured;
  ]
