(* Tests for the native (dynlinked) engine: probe-history equivalence
   with the interpreted engine on the HCOR and DECT designs, the
   artifact cache (warm loads skip the compiler, corrupt or misfitting
   [.cmxs] artifacts are counted misses followed by a recompile), one
   load per artifact per process with a private instance per session,
   and the structured [Native_unavailable] degradation when the
   toolchain is missing or the engine is disabled.  Every test also
   passes on a toolchain-less host, where the engine serves its
   interpreted fallback behind the same session surface. *)

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

(* The largest gallery design, through its plugin. *)
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
let made = ref []

(* A directory name under the temp directory that no test used yet,
   removed by the enclosing [with_fresh_native_cache]. *)
let fresh_dir () =
  incr uniq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ocapi_native_test_%d_%d" (Unix.getpid ()) !uniq)
  in
  made := dir :: !made;
  dir

(* Point OCAPI_NATIVE_CACHE_DIR at a fresh directory and zero the
   counters, so compile/hit counts observe exactly this test's
   sessions.  Restores the default directory afterwards (putenv cannot
   unset, but the empty string selects the default). *)
let with_fresh_native_cache f =
  let dir = fresh_dir () in
  Unix.putenv "OCAPI_NATIVE_CACHE_DIR" dir;
  Ocapi_native.reset_stats ();
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "OCAPI_NATIVE_CACHE_DIR" "";
      List.iter (fun d -> if Sys.file_exists d then Temp_dir.remove d) !made;
      made := [])
    (fun () -> f dir)

let artifacts dir =
  List.filter (fun f -> Filename.check_suffix f ".cmxs") (Array.to_list (Sys.readdir dir))

let read path = In_channel.with_open_bin path In_channel.input_all

(* Make a fresh directory holding [files] (name, bytes) the cache: a
   directory this process never loaded from, so its sessions load from
   disk as a new process would. *)
let cache_of files =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  List.iter
    (fun (name, bytes) ->
      Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
          output_string oc bytes))
    files;
  Unix.putenv "OCAPI_NATIVE_CACHE_DIR" dir;
  dir

(* [cache_of] [dir]'s artifacts. *)
let copy_cache dir =
  cache_of (List.map (fun f -> (f, read (Filename.concat dir f))) (artifacts dir))

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

(* A design the width analysis rejects (its 62-bit output is past the
   analysis's limit for a saturation): each session is a counted
   fallback to the compiled program.  The analysis runs before anything
   is written, so no session compiles, and none creates the artifact
   directory; it runs once per design, so the second session finds the
   verdict and runs none. *)
let test_wide_design_falls_back () =
  let sys = accum ~width:60 ~out_width:62 () in
  let pg = Compiled_sim.lower sys in
  Alcotest.(check bool) "words rejected" false (Emit.word_mode_ok pg);
  (match Emit.emit_plugin sys pg with
  | exception e when Raises.code Unsupported e -> ()
  | _ -> Alcotest.fail "a plugin emitted over int64 cells");
  let interp = Flow.simulate ~engine:"interp" sys ~cycles:40 in
  with_fresh_native_cache (fun dir ->
      let verdicts () = (Ocapi_native.stats ()).Ocapi_native.verdicts in
      let first = run_session sys ~cycles:40 in
      let after_first = verdicts () in
      let second = run_session sys ~cycles:40 in
      Alcotest.(check bool) "fallbacks = interp" true
        (first = interp && second = interp);
      let s = Ocapi_native.stats () in
      Alcotest.(check (pair int int)) "two counted fallbacks, no compile" (2, 0)
        (s.Ocapi_native.fallbacks, s.Ocapi_native.compiles);
      (* A host without the toolchain falls back before any analysis. *)
      let once = if native_ok () then 1 else 0 in
      Alcotest.(check (pair int int)) "verdicts after each session" (once, once)
        (after_first, s.Ocapi_native.verdicts);
      Alcotest.(check bool) "no artifact directory" false (Sys.file_exists dir))

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
    with_fresh_native_cache (fun dir ->
        let cold = run_session sys ~cycles:12 in
        let s1 = Ocapi_native.stats () in
        Alcotest.(check int) "cold run compiles once" 1 s1.Ocapi_native.compiles;
        Alcotest.(check int)
          "cold run is not a cache hit" 0 s1.Ocapi_native.cache_hits;
        let again = run_session sys ~cycles:12 in
        let s2 = Ocapi_native.stats () in
        Alcotest.(check (pair int int))
          "a second session reuses the loaded factory" (1, 1)
          (s2.Ocapi_native.reuses, s2.Ocapi_native.loads);
        ignore (copy_cache dir);
        let warm = run_session sys ~cycles:12 in
        let s3 = Ocapi_native.stats () in
        Alcotest.(check int)
          "warm run invokes no compiler" 1 s3.Ocapi_native.compiles;
        Alcotest.(check int)
          "warm run is a counted cache hit" 1 s3.Ocapi_native.cache_hits;
        (* Only the cold compile ran the width analysis: neither the
           reused factory nor the artifact loaded from disk needs it. *)
        Alcotest.(check (list int)) "verdicts: cold, reused, warm" [ 1; 1; 1 ]
          (List.map (fun s -> s.Ocapi_native.verdicts) [ s1; s2; s3 ]);
        Alcotest.(check bool) "warm histories identical" true
          (cold = again && cold = warm))

(* Replace a cached artifact with garbage bytes, under a new inode. *)
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
        (* Corrupt the shared object in a directory this process never
           loaded from: the Dynlink failure must be a counted miss,
           dropped from the cache and recompiled — not a crash, not a
           fallback. *)
        let copy = copy_cache dir in
        garble copy ".cmxs" "this is not a shared object";
        let again = run_session sys ~cycles:12 in
        let s = Ocapi_native.stats () in
        Alcotest.(check bool)
          "corrupt artifact is a counted miss" true
          (s.Ocapi_native.corrupt_misses >= 1);
        Alcotest.(check int) "recompiled" 2 s.Ocapi_native.compiles;
        Alcotest.(check int) "no fallback taken" 0 s.Ocapi_native.fallbacks;
        Alcotest.(check bool) "recompiled run bit-identical" true (cold = again);
        (* Another design's artifact under this key loads, but its store
           does not fit this design's lowered program: the same
           counted-miss path. *)
        ignore
          (run_session
             (Test_engines.ram_words_system ~name:"native_other" ~words:4 ())
             ~cycles:4);
        let mine = List.hd (artifacts dir) in
        let theirs = List.find (fun f -> f <> mine) (artifacts copy) in
        ignore (cache_of [ (mine, read (Filename.concat copy theirs)) ]);
        let third = run_session sys ~cycles:12 in
        let s = Ocapi_native.stats () in
        Alcotest.(check bool)
          "misfitting artifact is a counted miss" true
          (s.Ocapi_native.corrupt_misses >= 2);
        Alcotest.(check int) "recompiled again" 4 s.Ocapi_native.compiles;
        Alcotest.(check int) "still no fallback" 0 s.Ocapi_native.fallbacks;
        Alcotest.(check bool) "third run bit-identical" true (cold = third))

(* Two live sessions built from the same digest must be genuinely
   private instances.  The artifact is dynlinked once, and each session
   is its own application of the plugin's functor, so stepping one
   cannot touch the other's store (this is the engine-sweep /
   parallel-campaign shape). *)
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

(* --- one load, an instance per session ------------------------------------- *)

let listing dir = if Sys.file_exists dir then Array.to_list (Sys.readdir dir) else []

(* Only a path's first session dynlinks: 64 sessions over three builds
   of one design, made one after another and overlapping, load once,
   and after the first session no file appears in the temp directory or
   in the cache directory. *)
let test_one_load_per_artifact () =
  let builds = Array.init 3 (fun _ -> accum ~width:15 ()) in
  if not (native_ok ()) then check_fallback_serves builds.(0)
  else
    with_fresh_native_cache (fun dir ->
        let expected = Flow.simulate ~engine:"interp" (accum ~width:15 ()) ~cycles:8 in
        let check_run h = Alcotest.(check bool) "native = interp" true (h = expected) in
        check_run (run_session builds.(0) ~cycles:8);
        let tmp = Filename.get_temp_dir_name () in
        let before = (listing tmp, listing dir) in
        for i = 1 to 31 do
          check_run (run_session builds.(i mod 3) ~cycles:8)
        done;
        let module E = (val Ocapi_engine.get "native") in
        let open_ = List.init 32 (fun i -> E.make builds.(i mod 3)) in
        Fun.protect
          ~finally:(fun () -> List.iter (fun ses -> ses.Ocapi_engine.ses_close ()) open_)
          (fun () ->
            List.iter (fun ses -> ses.Ocapi_engine.ses_reset ()) open_;
            for _ = 1 to 8 do
              List.iter (fun ses -> ses.Ocapi_engine.ses_step ()) open_
            done;
            List.iter (fun ses -> check_run (ses.Ocapi_engine.ses_histories ())) open_);
        let s = Ocapi_native.stats () in
        Alcotest.(check (list int)) "loads, compiles, reuses" [ 1; 1; 63 ]
          [ s.Ocapi_native.loads; s.Ocapi_native.compiles; s.Ocapi_native.reuses ];
        let fresh (t0, d0) =
          List.filter (fun f -> not (List.mem f t0)) (listing tmp)
          @ List.filter (fun f -> not (List.mem f d0)) (listing dir)
        in
        Alcotest.(check (list string)) "no file written after the first session" []
          (fresh before))

(* Dynlinked code is never unmapped, so a loaded factory stays loaded:
   after more designs than an artifact table holds, the first design's
   next session reuses its factory instead of loading its file again,
   and still simulates the design. *)
let test_loaded_factory_stays_loaded () =
  let build i = accum ~width:(20 + i) () in
  if not (native_ok ()) then check_fallback_serves (build 0)
  else
    with_fresh_native_cache (fun _dir ->
        for i = 0 to Artifact_table.capacity do
          ignore (run_session (build i) ~cycles:4)
        done;
        let again = run_session (build 0) ~cycles:24 in
        let s = Ocapi_native.stats () in
        Alcotest.(check (list int)) "compiles, loads, cache hits"
          [ Artifact_table.capacity + 1; Artifact_table.capacity + 1; 0 ]
          [ s.Ocapi_native.compiles; s.Ocapi_native.loads; s.Ocapi_native.cache_hits ];
        Alcotest.(check bool) "native = interp" true
          (again = Flow.simulate ~engine:"interp" (build 0) ~cycles:24))

(* A session's instance is all it keeps: 200 rs sessions made and
   closed leave the live heap within a fixed bound of where 10 left
   it. *)
let test_sessions_leave_no_heap () =
  let sys = Gallery.rs () in
  let module E = (val Ocapi_engine.get "native") in
  let session () =
    let ses = E.make sys in
    ses.Ocapi_engine.ses_step ();
    ses.Ocapi_engine.ses_close ()
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  for _ = 1 to 10 do session () done;
  let after_10 = live () in
  for _ = 1 to 190 do session () done;
  let grown = live () - after_10 in
  if grown > 5_000 then
    Alcotest.failf "190 more sessions grew the live heap by %d words" grown

(* RAM images are instance state: a native SEU campaign on the
   accumulator CPU, whose RAM the plugin inlines, classifies every run
   on two domains as it does serially. *)
let test_seu_two_domains_cpu () =
  let campaign ?replicate domains =
    Ocapi_fault.seu_campaign ~engine:"native" ~runs:60 ~seed:5 ~domains ?replicate
      (Gallery.cpu ()) ~cycles:48
  in
  Alcotest.(check (list string)) "2 domains = serial"
    (Test_fault.seu_lines (campaign 1))
    (Test_fault.seu_lines (campaign ~replicate:Gallery.cpu 2))

(* The compiled and native engines lower a design once between them. *)
let test_engines_share_lowering () =
  let sys = accum ~width:16 () in
  let before = Ocapi_engine.program_stats () in
  List.iter
    (fun engine ->
      let module E = (val Ocapi_engine.get engine) in
      (E.make sys).Ocapi_engine.ses_close ())
    [ "compiled"; "native"; "compiled" ];
  let s = Ocapi_engine.program_stats () in
  Alcotest.(check (pair int int)) "one lowering, two reuses" (1, 2)
    ( s.Artifact_table.elaborations - before.Artifact_table.elaborations,
      s.Artifact_table.hits - before.Artifact_table.hits )

(* --- the artifact key --------------------------------------------------------- *)

(* The .cmxs cache key holds the design digest and [Emit.emitter_version]
   but not the plugin text, so a change to the lowering or its rendering
   must bump the version or the cache keeps serving artifacts of the old
   text.  Pinning the text of one small design to the version makes such
   a change fail here until both are updated together.  The text depends
   only on the design: another build in between leaves it unchanged. *)
let test_plugin_text_pinned () =
  let plugin sys = Emit.emit_plugin sys (Compiled_sim.lower sys) in
  let text () = plugin (accum ~width:8 ()) in
  let first = text () in
  ignore (plugin (accum ~width:13 ()));
  Alcotest.(check string) "text independent of earlier builds" first (text ());
  Alcotest.(check (pair int string))
    "emitter version and plugin text digest"
    (9, "89c41b8e6d2c6157f60f7e521d00a753")
    (Emit.emitter_version, Digest.to_hex (Digest.string first))

(* Both back ends index the store unchecked, on the strength of one
   check where they take the program: a statement naming a slot at or
   past the store's end, or a B-phase unit naming a host kernel past
   the hook arrays, is refused as an internal error, by the closure back
   end and by the plugin emitter alike. *)
let test_forged_slot_refused () =
  let sys = accum ~width:8 () in
  let pg = Compiled_sim.lower sys in
  let forge stmt =
    let c = pg.Compiled_sim.pg_comps.(0) in
    let trs =
      Array.map
        (fun tr ->
          let block = Array.append tr.Compiled_sim.tr_block_a [| stmt |] in
          { tr with Compiled_sim.tr_block_a = block })
        c.Compiled_sim.co_transitions
    in
    { pg with pg_comps = [| { c with co_transitions = trs } |] }
  in
  let past = pg.Compiled_sim.pg_slots in
  let hook = Compiled_sim.Host_kernel (Array.length pg.Compiled_sim.pg_kernels) in
  List.iter
    (fun (what, forged) ->
      (match Compiled_sim.instantiate forged sys with
      | exception e when Raises.code Internal e -> ()
      | _ -> Alcotest.failf "instantiate took a program %s" what);
      match Emit.emit_plugin sys forged with
      | exception e when Raises.code Internal e -> ()
      | _ -> Alcotest.failf "emit_plugin took a program %s" what)
    [
      ("writing the slot at the store's end", forge (Assign { dst = past; src = 0 }));
      ("reading a slot past the store's end", forge (Assign { dst = 0; src = past + 1 }));
      ( "running a host kernel past the hook arrays",
        { pg with pg_schedule = Array.append pg.pg_schedule [| hook |] } );
    ]

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
    Alcotest.test_case "wide design: counted fallback = interp" `Quick
      test_wide_design_falls_back;
    Alcotest.test_case "warm cache skips the compiler" `Quick
      test_warm_cache_skips_compiler;
    Alcotest.test_case "corrupt/stale artifact: counted miss + recompile"
      `Quick test_corrupt_artifact_recompiles;
    Alcotest.test_case "concurrent sessions are private instances" `Quick
      test_concurrent_sessions_are_private;
    Alcotest.test_case "one load per artifact per process" `Quick
      test_one_load_per_artifact;
    Alcotest.test_case "a loaded factory stays loaded" `Quick
      test_loaded_factory_stays_loaded;
    Alcotest.test_case "sessions leave no heap behind" `Quick
      test_sessions_leave_no_heap;
    Alcotest.test_case "cpu SEU campaign: 2 domains = serial" `Quick
      test_seu_two_domains_cpu;
    Alcotest.test_case "compiled and native share one lowering" `Quick
      test_engines_share_lowering;
    Alcotest.test_case "disabled: structured error, fallback serves" `Quick
      test_disabled_is_structured_and_serves_fallback;
    Alcotest.test_case "plugin text pinned to the emitter version" `Quick
      test_plugin_text_pinned;
    Alcotest.test_case "a slot past the store is refused by both back ends" `Quick
      test_forged_slot_refused;
  ]
