(* Tests for the differential fuzzing harness (Ocapi_diff): generator
   determinism, genome serialization, the reproducer corpus, the
   injected-bug self-test and the shrinker's invariants. *)

module Diff = Ocapi_diff
module Spec = Ocapi_diff.Spec
module Corpus = Ocapi_diff.Corpus

let json_str j = Ocapi_obs.Json.to_string j

(* --- generator determinism ------------------------------------------------- *)

(* The genome is a pure function of (size, seed): same arguments, same
   spec, same serialized form, and two independent builds of the spec
   elaborate to the same design digest. *)
let test_generate_deterministic () =
  List.iter
    (fun (size, seed) ->
      let a = Spec.generate ~size ~seed () in
      let b = Spec.generate ~size ~seed () in
      Alcotest.(check string)
        (Printf.sprintf "genome json (size %d, seed %d)" size seed)
        (json_str (Spec.to_json a))
        (json_str (Spec.to_json b));
      Alcotest.(check string)
        (Printf.sprintf "design digest (size %d, seed %d)" size seed)
        (Spec.digest a) (Spec.digest b);
      Alcotest.(check string)
        (Printf.sprintf "rebuild digest (size %d, seed %d)" size seed)
        (Cycle_system.digest (Spec.build a))
        (Cycle_system.digest (Spec.build b)))
    [ (1, 1); (2, 7); (3, 42); (4, 99) ]

(* Different seeds explore different designs (the generator is not
   collapsing the seed space). *)
let test_generate_seeds_differ () =
  let digests =
    List.map (fun seed -> Spec.digest (Spec.generate ~seed ())) [ 1; 2; 3; 4; 5 ]
  in
  let distinct = List.sort_uniq compare digests in
  Alcotest.(check bool) "5 seeds give >1 distinct design" true
    (List.length distinct > 1)

(* --- genome serialization -------------------------------------------------- *)

let test_spec_json_roundtrip () =
  List.iter
    (fun (size, seed) ->
      let s = Spec.generate ~size ~seed () in
      match Spec.of_json (Spec.to_json s) with
      | Error e -> Alcotest.failf "of_json failed (seed %d): %s" seed e
      | Ok s' ->
        Alcotest.(check string)
          (Printf.sprintf "roundtrip json (size %d, seed %d)" size seed)
          (json_str (Spec.to_json s))
          (json_str (Spec.to_json s'));
        Alcotest.(check string)
          (Printf.sprintf "roundtrip digest (size %d, seed %d)" size seed)
          (Spec.digest s) (Spec.digest s'))
    [ (1, 3); (2, 11); (3, 27); (4, 63) ]

(* --- differential check on clean designs ----------------------------------- *)

(* A handful of generated designs through the full engine roster: the
   stack must agree (this is the same property `ocapi fuzz` checks at
   campaign scale). *)
let test_check_spec_clean () =
  List.iter
    (fun seed ->
      let s = Spec.generate ~seed () in
      match Diff.check_spec s with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "seed %d diverged on %s: %s" seed f.Diff.f_check
          (Ocapi_error.to_string f.Diff.f_error))
    [ 1; 2; 3 ]

(* --- corpus ---------------------------------------------------------------- *)

let mk_entry seed =
  let spec = Spec.generate ~seed () in
  {
    Corpus.ce_seed = seed;
    ce_digest = Spec.digest spec;
    ce_engines = [ "interp"; "compiled" ];
    ce_check = "engines";
    ce_detail = "test entry";
    ce_spec = spec;
  }

let test_corpus_entry_roundtrip () =
  let e = mk_entry 17 in
  match Corpus.entry_of_json (Corpus.entry_json e) with
  | Error err -> Alcotest.failf "entry_of_json failed: %s" err
  | Ok e' ->
    Alcotest.(check string) "entry json roundtrip"
      (json_str (Corpus.entry_json e))
      (json_str (Corpus.entry_json e'))

let test_corpus_file_roundtrip () =
  let dir = Filename.temp_file "ocapi_corpus" "" in
  Sys.remove dir;
  let path = Filename.concat dir "corpus.jsonl" in
  (* A missing file is an empty corpus, not an error. *)
  (match Result.join (Corpus.load path) with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "missing corpus not empty"
  | Error e -> Alcotest.failf "missing corpus errored: %s" e);
  let entries = [ mk_entry 5; mk_entry 23 ] in
  Result.get_ok (Corpus.append path entries);
  (* Comment and blank lines are skipped on load. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "# trailing comment\n\n";
  close_out oc;
  Result.get_ok (Corpus.append path [ mk_entry 31 ]);
  (match Result.join (Corpus.load path) with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok loaded ->
    Alcotest.(check int) "3 entries survive comments" 3 (List.length loaded);
    List.iter2
      (fun a b ->
        Alcotest.(check string) "entry preserved"
          (json_str (Corpus.entry_json a))
          (json_str (Corpus.entry_json b)))
      [ mk_entry 5; mk_entry 23; mk_entry 31 ]
      loaded);
  Sys.remove path;
  Unix.rmdir dir

(* A run killed mid-append leaves a torn final line: `ocapi fuzz
   --corpus` drops it and replays the entry before it. *)
let test_corpus_torn_line_cli () =
  let cli =
    Filename.concat (Filename.concat Filename.parent_dir_name "bin") "ocapi_cli.exe"
  in
  Temp_dir.with_dir "ocapi_corpus_torn" (fun dir ->
      let path = Filename.concat dir "corpus.jsonl" and out = Filename.concat dir "out" in
      let line = json_str (Corpus.entry_json (mk_entry 9)) in
      Result.get_ok (Ocapi_obs.File.publish path (line ^ "\n" ^ String.sub line 0 40));
      let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      let pid =
        Unix.create_process cli
          [| cli; "fuzz"; "--corpus"; path; "--count"; "1"; "--json" |]
          Unix.stdin fd fd
      in
      Unix.close fd;
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "exits 0" true (status = Unix.WEXITED 0);
      let report = Ocapi_obs.Json.of_string (String.trim (Result.get_ok (Ocapi_obs.File.read out))) in
      Alcotest.(check int) "the entry replays" 1
        (match Result.map (Ocapi_obs.Json.member "replays") report with
        | Ok (Some (Ocapi_obs.Json.List replays)) -> List.length replays
        | _ -> -1))

(* A clean corpus entry replays green; an entry whose recorded digest
   was tampered with is counted as a replay failure. *)
let test_corpus_replay () =
  let good = mk_entry 9 in
  let bad = { (mk_entry 13) with Corpus.ce_digest = "bogus" } in
  let r =
    Diff.fuzz ~engines:[ "interp"; "compiled" ] ~corpus:[ good; bad ] ~seed:1
      ~count:0 ()
  in
  Alcotest.(check int) "two replays" 2 (List.length r.Diff.fz_replays);
  Alcotest.(check int) "one replay failure" 1 r.Diff.fz_replay_failures;
  let good_rp = List.hd r.Diff.fz_replays in
  Alcotest.(check bool) "good digest ok" true good_rp.Diff.rp_digest_ok;
  Alcotest.(check bool) "good replay clean" true (good_rp.Diff.rp_findings = [])

(* --- the injected-bug self-test -------------------------------------------- *)

let buggy_check spec =
  let buggy = Diff.register_buggy_engine () in
  Diff.check_spec ~engines:[ "interp"; buggy ] spec

(* The harness must actually catch a broken engine: fuzzing interp
   against the deliberately-broken engine finds divergences and shrinks
   them to reproducers whose genomes still fail. *)
let test_self_test_catches_bug () =
  let buggy = Diff.register_buggy_engine () in
  Alcotest.(check bool) "buggy engine not in default roster" false
    (List.mem buggy (Diff.default_engines ()));
  let r = Diff.fuzz ~engines:[ "interp"; buggy ] ~seed:7 ~count:3 () in
  Alcotest.(check bool) "divergences found" true (r.Diff.fz_divergent > 0);
  let shrunk =
    List.filter_map (fun d -> d.Diff.dr_shrunk) r.Diff.fz_results
  in
  Alcotest.(check bool) "some design shrunk" true (shrunk <> []);
  List.iter
    (fun (spec, digest, sz) ->
      Alcotest.(check string) "shrunk digest matches rebuild" digest
        (Spec.digest spec);
      Alcotest.(check int) "shrunk size recorded" (Spec.size spec) sz;
      Alcotest.(check bool) "shrunk genome still fails" true
        (buggy_check spec <> []))
    shrunk;
  let repros = Diff.report_reproducers r in
  Alcotest.(check int) "one reproducer per divergent design"
    r.Diff.fz_divergent (List.length repros)

(* The buggy engine corrupts its trace as well as its histories, so a
   reader of either sees bit 0 flipped from cycle 3 on. *)
let test_buggy_trace_corrupted () =
  let session engine =
    let module E = (val Ocapi_engine.get engine) in
    let ses = E.make (Gallery.rs ()) in
    Fun.protect ~finally:ses.Ocapi_engine.ses_close (fun () ->
        for _ = 1 to 10 do
          ses.Ocapi_engine.ses_step ()
        done;
        ( ses.Ocapi_engine.ses_histories (),
          Cycle_system.Trace.to_histories (ses.Ocapi_engine.ses_trace ()) ))
  in
  let clean, _ = session "interp" in
  let histories, trace = session (Diff.register_buggy_engine ()) in
  Alcotest.(check bool) "histories = trace" true (histories = trace);
  let expected =
    List.map
      (fun (p, h) ->
        (p, List.map (fun (c, v) -> (c, if c >= 3 then Fixed.flip_bit v 0 else v)) h))
      clean
  in
  Alcotest.(check bool) "bit 0 flipped from cycle 3 on" true (trace = expected);
  Alcotest.(check bool) "some token flipped" true (trace <> clean)

(* --- shrinker invariants --------------------------------------------------- *)

let failing_spec () =
  (* The buggy engine flips probe bits from cycle 3 on, so any genome
     with enough cycles fails against it; seed 7 does. *)
  let s = Spec.generate ~seed:7 () in
  Alcotest.(check bool) "seed-7 genome fails the buggy roster" true
    (buggy_check s <> []);
  s

let test_shrink_invariants () =
  let s = failing_spec () in
  let m = Diff.shrink ~check:buggy_check s in
  Alcotest.(check bool) "shrunk still fails" true (buggy_check m <> []);
  Alcotest.(check bool) "shrunk no larger" true (Spec.size m <= Spec.size s);
  (* Deterministic: shrinking the same genome twice gives the same
     reproducer. *)
  let m' = Diff.shrink ~check:buggy_check s in
  Alcotest.(check string) "shrink deterministic"
    (json_str (Spec.to_json m))
    (json_str (Spec.to_json m'));
  (* A fixpoint: re-shrinking the reproducer finds nothing smaller. *)
  let m'' = Diff.shrink ~check:buggy_check m in
  Alcotest.(check int) "shrink is a fixpoint" (Spec.size m) (Spec.size m'')

(* A passing genome is returned unchanged. *)
let test_shrink_passing_identity () =
  let s = Spec.generate ~seed:1 () in
  let check spec = Diff.check_spec ~engines:[ "interp"; "compiled" ] spec in
  Alcotest.(check bool) "seed-1 genome is clean" true (check s = []);
  let m = Diff.shrink ~check s in
  Alcotest.(check string) "clean genome unchanged"
    (json_str (Spec.to_json s))
    (json_str (Spec.to_json m))

(* --- campaign report ------------------------------------------------------- *)

(* The canonical report is byte-identical between a serial run and a
   --domains 2 run (the determinism discipline every campaign follows),
   and stable across repeated serial runs. *)
let test_fuzz_report_deterministic () =
  let run domains =
    json_str
      (Diff.report_json
         (Diff.fuzz ~engines:[ "interp"; "compiled" ] ~domains ~seed:11
            ~count:6 ()))
  in
  let serial = run 1 in
  Alcotest.(check string) "serial run reproducible" serial (run 1);
  Alcotest.(check string) "--domains 2 byte-identical" serial (run 2)

let suite =
  [
    Alcotest.test_case "generator is deterministic" `Quick
      test_generate_deterministic;
    Alcotest.test_case "seeds explore distinct designs" `Quick
      test_generate_seeds_differ;
    Alcotest.test_case "genome JSON roundtrip" `Quick test_spec_json_roundtrip;
    Alcotest.test_case "generated designs check clean" `Quick
      test_check_spec_clean;
    Alcotest.test_case "corpus entry JSON roundtrip" `Quick
      test_corpus_entry_roundtrip;
    Alcotest.test_case "corpus file roundtrip" `Quick test_corpus_file_roundtrip;
    Alcotest.test_case "corpus replay verifies digests" `Quick
      test_corpus_replay;
    Alcotest.test_case "corpus torn final line: fuzz --corpus replays" `Quick
      test_corpus_torn_line_cli;
    Alcotest.test_case "self-test catches the injected bug" `Quick
      test_self_test_catches_bug;
    Alcotest.test_case "buggy engine corrupts its trace" `Quick
      test_buggy_trace_corrupted;
    Alcotest.test_case "shrinker invariants" `Quick test_shrink_invariants;
    Alcotest.test_case "shrink keeps passing genomes" `Quick
      test_shrink_passing_identity;
    Alcotest.test_case "fuzz report is domain-count-invariant" `Quick
      test_fuzz_report_deterministic;
  ]
