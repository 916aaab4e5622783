(* Tests for the native (dynlinked) engine: probe-history equivalence
   with the interpreted engine on the HCOR and DECT designs, the
   artifact cache (warm loads skip the compiler, corrupt or stale
   [.cmxs] artifacts are counted misses followed by a recompile), and
   the structured [Native_unavailable] degradation when the toolchain
   is missing or the engine is disabled.  Every test also passes on a
   toolchain-less host, where the engine serves its interpreted
   fallback behind the same session surface. *)

let native_ok () =
  match Ocapi_native.availability () with Ok () -> true | Error _ -> false

(* A small accumulator design with native-test-local names, so its
   digest never collides with other suites' designs in the shared
   artifact cache.  [width] varies the digest between tests; the output
   is resized to [out_width] bits. *)
let accum ?out_width ~width () =
  let clk = Clock.default in
  let fmt = Fixed.signed ~width ~frac:0 in
  let out =
    Fixed.signed ~width:(Option.value out_width ~default:width) ~frac:0
  in
  let acc = Signal.Reg.create clk "native_acc" fmt in
  let sfg =
    Sfg.build "native_step" (fun b ->
        let x = Sfg.Builder.input b "x" fmt in
        Sfg.Builder.output b "y"
          (Signal.resize ~overflow:Fixed.Saturate out
             Signal.(x +: reg_q acc));
        Sfg.Builder.assign_resized b acc Signal.(x -: reg_q acc))
  in
  let fsm = Fsm.create "native_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let sys = Cycle_system.create "native_tiny" in
  let t = Cycle_system.add_timed sys "t" fsm in
  let stim =
    Cycle_system.add_input sys "x_in" fmt (fun c ->
        Some (Fixed.of_int fmt ((c mod 5) - 2)))
  in
  let p = Cycle_system.add_output sys "y_out" in
  ignore (Cycle_system.connect sys (stim, "out") [ (t, "x") ]);
  ignore (Cycle_system.connect sys (t, "y") [ (p, "in") ]);
  sys

(* --- equivalence with the interpreted engine ------------------------------- *)

let check_native_matches_interp sys ~cycles =
  let native = Flow.simulate ~engine:"native" sys ~cycles in
  let interp = Flow.simulate ~engine:"interp" sys ~cycles in
  Alcotest.(check bool)
    "native histories non-empty" true
    (List.exists (fun (_, h) -> h <> []) native);
  Alcotest.(check bool) "native = interp" true (native = interp)

let test_equivalence_hcor () =
  let bits = Dect_stimuli.burst ~seed:7 () in
  let tx = Dect_stimuli.transmit bits in
  let rx =
    Dect_stimuli.channel ~taps:[| 1.0; 0.15; -0.05 |] ~snr_db:30.0 ~seed:7 tx
  in
  let samples =
    Dect_stimuli.quantize Hcor.sample_format (Array.map (fun x -> x /. 2.0) rx)
  in
  let h = Hcor.create ~stimulus:(Hcor.sample_stimulus samples) () in
  check_native_matches_interp h.Hcor.system ~cycles:120

(* A 62-bit output cannot be wrapped or saturated over unboxed words
   (the helpers compute [1 lsl width]), so this plugin runs over int64
   cells. *)
let test_equivalence_int64_cells () =
  let sys = accum ~width:60 ~out_width:62 () in
  let src, _ = Emit.emit_plugin sys in
  Alcotest.(check string) "value store"
    (Printf.sprintf "(* Emitter v%d, int64 value store; loaded via Dynlink, \
                     driven through" Emit.emitter_version)
    (List.nth (String.split_on_char '\n' src) 1);
  check_native_matches_interp sys ~cycles:40

let test_equivalence_dect () =
  let stimulus c =
    Some
      (Fixed.of_float ~overflow:Fixed.Saturate Dect_transceiver.sample_format
         (sin (float_of_int c *. 0.37) /. 2.2))
  in
  let d = Dect_transceiver.create ~stimulus () in
  check_native_matches_interp d.Dect_transceiver.system ~cycles:160

(* --- the artifact cache ---------------------------------------------------- *)

let uniq = ref 0

(* Point OCAPI_NATIVE_CACHE_DIR at a fresh directory and zero the
   counters, so compile/hit counts observe exactly this test's
   sessions.  Restores the default directory afterwards (putenv cannot
   unset, but the empty string selects the default). *)
let with_fresh_native_cache f =
  incr uniq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ocapi_native_test_%d_%d" (Unix.getpid ()) !uniq)
  in
  Unix.putenv "OCAPI_NATIVE_CACHE_DIR" dir;
  Ocapi_native.reset_stats ();
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "OCAPI_NATIVE_CACHE_DIR" "";
      if Sys.file_exists dir then begin
        Array.iter
          (fun f ->
            try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end)
    (fun () -> f dir)

(* One full session on the native engine: reset, step [cycles], return
   the histories. *)
let run_session sys ~cycles =
  let module E = (val Ocapi_engine.get "native") in
  let ses = E.make sys in
  Fun.protect ~finally:ses.Ocapi_engine.ses_close (fun () ->
      ses.Ocapi_engine.ses_reset ();
      for _ = 1 to cycles do
        ses.Ocapi_engine.ses_step ()
      done;
      ses.Ocapi_engine.ses_histories ())

let check_fallback_serves sys =
  Ocapi_native.reset_stats ();
  let native = Flow.simulate ~engine:"native" sys ~cycles:16 in
  let interp = Flow.simulate ~engine:"interp" sys ~cycles:16 in
  Alcotest.(check bool)
    "fallback counted" true
    ((Ocapi_native.stats ()).Ocapi_native.fallbacks >= 1);
  Alcotest.(check bool) "fallback histories = interp" true (native = interp)

let test_warm_cache_skips_compiler () =
  let sys = accum ~width:9 () in
  if not (native_ok ()) then check_fallback_serves sys
  else
    with_fresh_native_cache (fun _dir ->
        let cold = run_session sys ~cycles:12 in
        let s1 = Ocapi_native.stats () in
        Alcotest.(check int) "cold run compiles once" 1 s1.Ocapi_native.compiles;
        Alcotest.(check int)
          "cold run is not a cache hit" 0 s1.Ocapi_native.cache_hits;
        let warm = run_session sys ~cycles:12 in
        let s2 = Ocapi_native.stats () in
        Alcotest.(check int)
          "warm run invokes no compiler" 1 s2.Ocapi_native.compiles;
        Alcotest.(check int)
          "warm run is a counted cache hit" 1 s2.Ocapi_native.cache_hits;
        Alcotest.(check bool) "warm histories identical" true (cold = warm))

(* Replace a cached artifact with garbage bytes.  Safe to do in place:
   the engine never dynlinks the cache file itself, only a throwaway
   per-load copy, so no live mapping is backed by this inode. *)
let overwrite path bytes =
  (try Sys.remove path with Sys_error _ -> ());
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let garble dir suffix bytes =
  Array.iter
    (fun f ->
      if Filename.check_suffix f suffix then
        overwrite (Filename.concat dir f) bytes)
    (Sys.readdir dir)

let test_corrupt_artifact_recompiles () =
  let sys = accum ~width:10 () in
  if not (native_ok ()) then check_fallback_serves sys
  else
    with_fresh_native_cache (fun dir ->
        let cold = run_session sys ~cycles:12 in
        (* Corrupt the shared object: the Dynlink failure must be a
           counted miss, dropped from the cache and recompiled — not a
           crash, not a fallback. *)
        garble dir ".cmxs" "this is not a shared object";
        let again = run_session sys ~cycles:12 in
        let s = Ocapi_native.stats () in
        Alcotest.(check bool)
          "corrupt artifact is a counted miss" true
          (s.Ocapi_native.corrupt_misses >= 1);
        Alcotest.(check int) "recompiled" 2 s.Ocapi_native.compiles;
        Alcotest.(check int) "no fallback taken" 0 s.Ocapi_native.fallbacks;
        Alcotest.(check bool) "recompiled run bit-identical" true (cold = again);
        (* A stale/garbled meta (undecodable, or a stale emitter
           version) must take the same counted-miss path. *)
        garble dir ".meta" "stale metadata";
        let third = run_session sys ~cycles:12 in
        let s = Ocapi_native.stats () in
        Alcotest.(check bool)
          "stale meta is a counted miss" true
          (s.Ocapi_native.corrupt_misses >= 2);
        Alcotest.(check int) "recompiled again" 3 s.Ocapi_native.compiles;
        Alcotest.(check bool) "third run bit-identical" true (cold = third))

(* Two live sessions built from the same digest must be genuinely
   private instances.  Each load dynlinks a throwaway copy of the
   artifact precisely because dlopen dedupes by pathname: reloading the
   cached path in place would re-run the module initializer over the
   shared mapping and rebind the first session's state out from under
   it (this is the engine-sweep / parallel-campaign shape). *)
let test_concurrent_sessions_are_private () =
  let sys_a = accum ~width:12 () in
  let sys_b = accum ~width:12 () in
  let expected = Flow.simulate ~engine:"interp" sys_a ~cycles:20 in
  let module E = (val Ocapi_engine.get "native") in
  let ses_a = E.make sys_a in
  Fun.protect ~finally:ses_a.Ocapi_engine.ses_close (fun () ->
      ses_a.Ocapi_engine.ses_reset ();
      let ses_b = E.make sys_b in
      Fun.protect ~finally:ses_b.Ocapi_engine.ses_close (fun () ->
          ses_b.Ocapi_engine.ses_reset ();
          for _ = 1 to 20 do
            ses_a.Ocapi_engine.ses_step ();
            ses_b.Ocapi_engine.ses_step ()
          done;
          Alcotest.(check bool)
            "session A unperturbed by B" true
            (ses_a.Ocapi_engine.ses_histories () = expected);
          Alcotest.(check bool)
            "session B unperturbed by A" true
            (ses_b.Ocapi_engine.ses_histories () = expected)))

(* --- the artifact key --------------------------------------------------------- *)

(* The .cmxs cache key holds the design digest and [Emit.emitter_version]
   but not the plugin text, so a change to the lowering or its rendering
   must bump the version or the cache keeps serving artifacts of the old
   text.  Pinning the text of one small design to the version makes such
   a change fail here until both are updated together.  The text depends
   only on the design: another build in between leaves it unchanged. *)
let test_plugin_text_pinned () =
  let text () = fst (Emit.emit_plugin (accum ~width:8 ())) in
  let first = text () in
  ignore (Emit.emit_plugin (accum ~width:13 ()));
  Alcotest.(check string) "text independent of earlier builds" first (text ());
  Alcotest.(check (pair int string))
    "emitter version and plugin text digest"
    (5, "2d519cbe44552b6288ea5a5f2e4bfce8")
    (Emit.emitter_version, Digest.to_hex (Digest.string first))

(* --- unavailability -------------------------------------------------------- *)

let test_disabled_is_structured_and_serves_fallback () =
  let prior = Option.value ~default:"" (Sys.getenv_opt "OCAPI_NATIVE_DISABLE") in
  Unix.putenv "OCAPI_NATIVE_DISABLE" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "OCAPI_NATIVE_DISABLE" prior)
    (fun () ->
      (match Ocapi_native.availability () with
      | Ok () -> Alcotest.fail "expected Error from availability"
      | Error e ->
        Alcotest.(check bool)
          "code is Native_unavailable" true
          (e.Ocapi_error.e_code = Ocapi_error.Native_unavailable);
        Alcotest.(check bool)
          "diagnostic names the engine" true
          (e.Ocapi_error.e_engine = "native"));
      check_fallback_serves (accum ~width:11 ()))

let suite =
  [
    Alcotest.test_case "native = interp on HCOR" `Quick test_equivalence_hcor;
    Alcotest.test_case "native = interp on DECT" `Slow test_equivalence_dect;
    Alcotest.test_case "native = interp over int64 cells" `Quick
      test_equivalence_int64_cells;
    Alcotest.test_case "warm cache skips the compiler" `Quick
      test_warm_cache_skips_compiler;
    Alcotest.test_case "corrupt/stale artifact: counted miss + recompile"
      `Quick test_corrupt_artifact_recompiles;
    Alcotest.test_case "concurrent sessions are private instances" `Quick
      test_concurrent_sessions_are_private;
    Alcotest.test_case "disabled: structured error, fallback serves" `Quick
      test_disabled_is_structured_and_serves_fallback;
    Alcotest.test_case "plugin text pinned to the emitter version" `Quick
      test_plugin_text_pinned;
  ]
