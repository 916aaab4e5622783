(* Tests for the fault-injection subsystem: zero-fault SEU controls
   against all three cycle engines, hand-computed stuck-at coverage,
   campaign determinism, and graceful degradation of non-settling
   faulty circuits into per-run diagnostics. *)

(* --- zero-fault controls --------------------------------------------------- *)

(* A campaign's session stepped by [Ocapi_engine.run] with no injection
   must be bit-identical to the plain engine run: the stepping
   discipline itself must not perturb the simulation. *)
let check_control engine =
  let cycles = 48 in
  let golden = Flow.simulate ~engine (Gallery.dect ()) ~cycles in
  let control =
    let (module E : Ocapi_engine.ENGINE) = Ocapi_engine.get engine in
    let ses = E.make (Gallery.dect ()) in
    Fun.protect ~finally:ses.Ocapi_engine.ses_close (fun () ->
        Cycle_system.Trace.to_histories (Ocapi_engine.run ses ~cycles))
  in
  match Flow.first_history_mismatch golden control with
  | None -> ()
  | Some (probe, cycle, detail) ->
    Alcotest.failf "%s control diverged at probe %s%s: %s" engine probe
      (match cycle with Some c -> Printf.sprintf " cycle %d" c | None -> "")
      detail

let test_control_interp () = check_control "interp"
let test_control_compiled () = check_control "compiled"
let test_control_rtl () = check_control "rtl"

(* --- stuck-at on a hand-computed netlist ----------------------------------- *)

let and_netlist () =
  let nl = Netlist.create "and2" in
  let a = Netlist.input_bus nl "a" 1 and b = Netlist.input_bus nl "b" 1 in
  Netlist.output_bus nl "y" [| Netlist.gate nl Netlist.And [ a.(0); b.(0) ] |];
  nl

(* Exhaustive stimuli expose every stuck-at fault of a 2-input AND:
   coverage must be exactly 1. *)
let test_stuck_at_and_exhaustive () =
  let vectors =
    [|
      [ ("a", 0L); ("b", 0L) ];
      [ ("a", 0L); ("b", 1L) ];
      [ ("a", 1L); ("b", 0L) ];
      [ ("a", 1L); ("b", 1L) ];
    |]
  in
  let r = Ocapi_fault.stuck_at_netlist (and_netlist ()) ~vectors in
  Alcotest.(check bool) "universe non-empty" true (r.Ocapi_fault.st_universe > 0);
  Alcotest.(check bool)
    "collapsing shrinks the universe" true
    (r.Ocapi_fault.st_collapsed < r.Ocapi_fault.st_universe);
  Alcotest.(check int)
    "all collapsed faults simulated" r.Ocapi_fault.st_collapsed
    r.Ocapi_fault.st_simulated;
  Alcotest.(check int) "no diagnosed faults" 0 r.Ocapi_fault.st_diagnosed;
  Alcotest.(check int)
    "every fault detected" r.Ocapi_fault.st_simulated
    r.Ocapi_fault.st_detected;
  Alcotest.(check (float 1e-9)) "coverage 100%" 1.0 r.Ocapi_fault.st_coverage

(* A single vector (1,1) cannot expose the stuck-at-1 faults: the
   campaign must report them undetected and coverage strictly below 1. *)
let test_stuck_at_and_weak_stimuli () =
  let vectors = [| [ ("a", 1L); ("b", 1L) ] |] in
  let r = Ocapi_fault.stuck_at_netlist (and_netlist ()) ~vectors in
  Alcotest.(check bool) "some fault detected" true (r.Ocapi_fault.st_detected > 0);
  Alcotest.(check bool)
    "stuck-at-1 faults escape" true
    (r.Ocapi_fault.st_undetected > 0);
  Alcotest.(check bool)
    "coverage below 100%" true
    (r.Ocapi_fault.st_coverage < 1.0);
  Alcotest.(check int)
    "classes partition the campaign" r.Ocapi_fault.st_simulated
    (r.Ocapi_fault.st_detected + r.Ocapi_fault.st_undetected
   + r.Ocapi_fault.st_diagnosed)

(* --- stuck-at on the synthesized HCOR -------------------------------------- *)

let test_stuck_at_hcor () =
  let r =
    Ocapi_fault.stuck_at_system ~max_faults:60 ~seed:1 (Gallery.hcor ())
      ~cycles:8
  in
  Alcotest.(check int) "sample size honoured" 60 r.Ocapi_fault.st_simulated;
  Alcotest.(check bool)
    "collapsing shrinks the universe" true
    (r.Ocapi_fault.st_collapsed < r.Ocapi_fault.st_universe);
  Alcotest.(check int) "vectors recorded" 8 r.Ocapi_fault.st_vectors;
  Alcotest.(check bool)
    "stimuli expose some faults" true
    (r.Ocapi_fault.st_detected > 0);
  Alcotest.(check int)
    "classes partition the campaign" r.Ocapi_fault.st_simulated
    (r.Ocapi_fault.st_detected + r.Ocapi_fault.st_undetected
   + r.Ocapi_fault.st_diagnosed)

(* --- a non-settling faulty circuit degrades to a diagnostic ---------------- *)

(* en = 0 keeps the NAND feedback loop stable (a = 1); forcing en
   stuck-at-1 turns it into a ring oscillator.  The campaign must
   record the oscillation as a Did_not_settle diagnostic and keep
   going instead of aborting. *)
let test_oscillation_diagnosed () =
  let nl = Netlist.create "osc" in
  let en = Netlist.input_bus nl "en" 1 in
  let b = Netlist.new_net nl in
  let a = Netlist.gate nl Netlist.Nand [ en.(0); b ] in
  Netlist.buf_into nl ~dst:b a;
  Netlist.output_bus nl "q" [| a |];
  let vectors = [| [ ("en", 0L) ] |] in
  let r = Ocapi_fault.stuck_at_netlist nl ~vectors in
  Alcotest.(check bool)
    "oscillating fault diagnosed" true
    (r.Ocapi_fault.st_diagnosed > 0);
  Alcotest.(check int)
    "campaign completed despite it" r.Ocapi_fault.st_simulated
    (r.Ocapi_fault.st_detected + r.Ocapi_fault.st_undetected
   + r.Ocapi_fault.st_diagnosed);
  let is_did_not_settle rec_ =
    match rec_.Ocapi_fault.sr_outcome with
    | Ocapi_fault.Sa_diagnosed d -> d.Ocapi_error.e_code = Ocapi_error.Did_not_settle
    | _ -> false
  in
  Alcotest.(check bool)
    "diagnostic carries Did_not_settle" true
    (List.exists is_did_not_settle r.Ocapi_fault.st_records)

(* --- PPSFP exactness ------------------------------------------------------------ *)

(* One line per record, "<label> d <cycle> <output>", "<label> u" or
   "<label> x <code>", hashed: the whole per-fault outcome table. *)
let outcome_digest (r : Ocapi_fault.stuck_report) =
  let line (x : Ocapi_fault.stuck_record) =
    match x.sr_outcome with
    | Ocapi_fault.Sa_detected { at_cycle; at_output } ->
      Printf.sprintf "%s d %d %s\n" x.sr_label at_cycle at_output
    | Sa_undetected -> x.sr_label ^ " u\n"
    | Sa_diagnosed d ->
      Printf.sprintf "%s x %s\n" x.sr_label (Ocapi_error.code_label d.Ocapi_error.e_code)
  in
  Digest.to_hex (Digest.string (String.concat "" (List.map line r.st_records)))

let check_digest name ~faults ~detected md5 (r : Ocapi_fault.stuck_report) =
  Alcotest.(check int) (name ^ " faults") faults r.st_simulated;
  Alcotest.(check int) (name ^ " detected") detected r.st_detected;
  Alcotest.(check string) (name ^ " per-fault outcomes") md5 (outcome_digest r)

(* The per-fault outcomes of the fault-at-a-time campaign these batches
   replaced, pinned: 63-lane batches must reproduce every one. *)
let test_digests_rs_cpu () =
  check_digest "rs" ~faults:2210 ~detected:1699 "7ca44fc8e534059080aed9a61dd04f25"
    (Ocapi_fault.stuck_at_system ~seed:1 (Gallery.rs ()) ~cycles:45);
  check_digest "cpu" ~faults:2801 ~detected:1425 "433d13904a1f0dbc2b31a32eafda5493"
    (Ocapi_fault.stuck_at_system ~macro_of_kernel:Ram_cell.macro_of_kernel ~seed:1
       (Gallery.cpu ()) ~cycles:64)

let test_digests_dect_hcor () =
  check_digest "dect" ~faults:80 ~detected:17 "59bcd908a382245a99274de27f4f59ae"
    (Ocapi_fault.stuck_at_system ~macro_of_kernel:Dect_transceiver.macro_of_kernel
       ~max_faults:80 ~seed:1 (Gallery.dect ()) ~cycles:64);
  let c = Ocapi_fault.stuck_at_optimized ~max_faults:200 ~seed:1 (Gallery.hcor ()) ~cycles:24 in
  check_digest "hcor pre" ~faults:200 ~detected:109 "8bac454a63138b00971ff20c0fb3a54e"
    c.sc_pre;
  check_digest "hcor post" ~faults:200 ~detected:142 "6cc2d71658b83084bf592cc4c8be828d"
    c.sc_post

(* One line per SEU record — index, target, injection cycle and the
   outcome with its SDC probe, cycle and detail or its error's code,
   cycle and message — hashed.  The engine name stays out, so every
   engine must reproduce the same digest. *)
let seu_lines (r : Ocapi_fault.seu_report) =
  let line (x : Ocapi_fault.seu_run) =
    let outcome =
      match x.run_outcome with
      | Ocapi_fault.Masked -> "m"
      | Sdc { probe; cycle; detail } ->
        Printf.sprintf "s %s %s %s" probe
          (match cycle with Some c -> string_of_int c | None -> "-")
          detail
      | Detected e ->
        Printf.sprintf "d %s %s %s"
          (Ocapi_error.code_label e.Ocapi_error.e_code)
          (match e.Ocapi_error.e_cycle with Some c -> string_of_int c | None -> "-")
          e.Ocapi_error.e_message
    in
    Printf.sprintf "%d %s %d %s\n" x.run_index x.run_label x.run_cycle outcome
  in
  List.map line r.seu_records

let seu_digest r = Digest.to_hex (Digest.string (String.concat "" (seu_lines r)))

(* The per-run SEU outcomes of the campaigns that replay every run from
   reset, pinned per design; every SEU-capable engine must reproduce
   them. *)
let test_seu_digests () =
  List.iter
    (fun (design, build, runs, cycles, md5) ->
      List.iter
        (fun engine ->
          let r = Ocapi_fault.seu_campaign ~engine ~runs ~seed:11 (build ()) ~cycles in
          Alcotest.(check string)
            (Printf.sprintf "%s on %s: per-run outcomes" design engine)
            md5 (seu_digest r))
        [ "interp"; "compiled"; "native"; "rtl"; "gate" ])
    [
      ("dect", Gallery.dect, 60, 48, "1004c4d4cc5b219c13f449d6c07161bb");
      ("rs", Gallery.rs, 80, 45, "a0886319294f1fc5e90006c406181e65");
      ("cpu", Gallery.cpu, 120, 64, "2b6a8f5a234c431681035cd65d9e548b");
    ]

(* Windows over 64 cycles space the checkpoints ⌈cycles/64⌉ apart: a
   run restores a checkpoint before its injection cycle and steps up to
   it, and stops only at checkpoint cycles.  The records must still be
   those of every run replayed from reset. *)
let test_seu_long_window () =
  List.iter
    (fun (design, build, runs, cycles) ->
      List.iter
        (fun engine ->
          let reference =
            Ocapi_fault.seu_campaign_from_reset ~engine ~runs ~seed:5 (build ()) ~cycles
          in
          let r = Ocapi_fault.seu_campaign ~engine ~runs ~seed:5 (build ()) ~cycles in
          Alcotest.(check (list string))
            (Printf.sprintf "%s on %s, %d cycles" design engine cycles)
            (seu_lines reference) (seu_lines r))
        [ "interp"; "compiled" ])
    [ ("rs", Gallery.rs, 40, 130); ("cpu", Gallery.cpu, 40, 130); ("cpu", Gallery.cpu, 30, 201) ]

(* Batching assumes acyclic netlists (a cyclic one runs a fault per
   batch): the gallery's have no combinational cycle, under the
   stuck-at campaigns' synthesis options and the gate engine's. *)
let test_gallery_acyclic () =
  List.iter
    (fun (name, build) ->
      let macro_of_kernel = Gallery.macro_of_kernel name in
      List.iter
        (fun (what, options, macro_of_kernel) ->
          let nl, _ = Synthesize.synthesize ~options ~macro_of_kernel (build ()) in
          let _, cyclic = Netlist.combinational_depth nl in
          Alcotest.(check int) (Printf.sprintf "%s, %s: cyclic elements" name what) 0 cyclic)
        [
          ("stuck-at", Synthesize.default_options, macro_of_kernel);
          ("stuck-at optimized", Synthesize.default_options, Ocapi_ir.macro_of_model);
          ( "gate engine",
            { Synthesize.default_options with Synthesize.emit_probe_valids = true },
            Ocapi_ir.macro_of_model );
        ])
    Gallery.designs

(* Zero test-bench cycles replay nothing: no vectors, no detection. *)
let test_stuck_at_zero_cycles () =
  let r = Ocapi_fault.stuck_at_system ~max_faults:40 ~seed:1 (Gallery.rs ()) ~cycles:0 in
  Alcotest.(check int) "no vectors" 0 r.Ocapi_fault.st_vectors;
  Alcotest.(check int) "no detections" 0 r.Ocapi_fault.st_detected;
  Alcotest.(check int) "all undetected" r.Ocapi_fault.st_simulated
    r.Ocapi_fault.st_undetected

(* A fault's outcome alone on a one-fault simulator: its first
   differing (cycle, output) against the fault-free run. *)
let lone_outcome nl vectors f =
  let golden = Test_netlist.sim_outputs nl vectors in
  let faulty = Test_netlist.sim_outputs ~faults:[ f ] nl vectors in
  let names = List.map fst (Netlist.outputs_list nl) in
  let rec first c =
    if c >= Array.length vectors then Ocapi_fault.Sa_undetected
    else
      match
        List.find_opt
          (fun (_, g, w) -> g <> w)
          (List.map2 (fun n (g, w) -> (n, g, w)) names
             (List.combine golden.(c) faulty.(c)))
      with
      | Some (at_output, _, _) -> Ocapi_fault.Sa_detected { at_cycle = c; at_output }
      | None -> first (c + 1)
  in
  first 0

let prop_batch_outcomes =
  QCheck.Test.make ~name:"batched stuck-at outcomes = lone runs (random networks)"
    ~count:30 QCheck.int (fun seed ->
      let nl, vectors = Test_netlist.random_network seed in
      let r = Ocapi_fault.stuck_at_netlist nl ~vectors in
      List.for_all
        (fun (x : Ocapi_fault.stuck_record) -> x.sr_outcome = lone_outcome nl vectors x.sr_fault)
        r.Ocapi_fault.st_records)

(* --- SEU campaigns ---------------------------------------------------------- *)

let test_seu_deterministic () =
  let run () =
    Ocapi_fault.seu_campaign ~engine:"compiled" ~runs:120 ~seed:7
      (Gallery.dect ()) ~cycles:32
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "same seed, same report" true (r1 = r2);
  Alcotest.(check int)
    "classes partition the runs" r1.Ocapi_fault.seu_runs
    (r1.Ocapi_fault.seu_masked + r1.Ocapi_fault.seu_sdc
   + r1.Ocapi_fault.seu_detected)

(* Same seed must pick the same targets on every engine: target
   selection depends only on the system's register/state inventory,
   never on the engine. *)
let test_seu_targets_engine_independent () =
  let labels engine =
    let r =
      Ocapi_fault.seu_campaign ~engine ~runs:25 ~seed:3 (Gallery.dect ())
        ~cycles:16
    in
    List.map
      (fun run -> (run.Ocapi_fault.run_label, run.Ocapi_fault.run_cycle))
      r.Ocapi_fault.seu_records
  in
  let li = labels "interp" in
  let lc = labels "compiled" in
  let lr = labels "rtl" in
  Alcotest.(check bool) "interp = compiled targets" true (li = lc);
  Alcotest.(check bool) "compiled = rtl targets" true (lc = lr)

(* With the result cache enabled, a repeated SEU campaign is served as
   a memoized report: bit-identical to the cold run, counted as a cache
   hit, and the per-run progress hook never fires. *)
let test_seu_report_cached () =
  Flow.Cache.enable ();
  Fun.protect
    ~finally:(fun () ->
      Flow.Cache.disable ();
      Flow.Cache.clear ();
      Flow.Cache.reset_stats ())
    (fun () ->
      let run () =
        let ticks = ref 0 in
        let report =
          Ocapi_fault.seu_campaign ~engine:"compiled" ~runs:30 ~seed:5
            ~progress:(fun _ -> incr ticks)
            (Gallery.dect ()) ~cycles:24
        in
        (report, !ticks)
      in
      let cold, cold_ticks = run () in
      let before = Flow.Cache.stats () in
      let warm, warm_ticks = run () in
      let after = Flow.Cache.stats () in
      Alcotest.(check bool) "cold run actually ran" true (cold_ticks > 0);
      Alcotest.(check int) "warm run served from cache, no progress" 0
        warm_ticks;
      Alcotest.(check int) "one more cache hit" (before.Flow.Cache.hits + 1)
        after.Flow.Cache.hits;
      let s r = Ocapi_obs.Json.to_string (Ocapi_fault.seu_report_json r) in
      Alcotest.(check string) "warm report = cold report" (s cold) (s warm))

(* Bad campaign sizes are structured [Unsupported] errors: the library
   raises them before any simulation, and `ocapi fault` prints them and
   exits 1, not the 125 of an uncaught exception. *)
let test_seu_bad_sizes () =
  let unsupported f =
    match f () with
    | _ -> Alcotest.fail "expected Ocapi_error.Error"
    | exception Ocapi_error.Error e ->
      Alcotest.(check string)
        "code" "unsupported"
        (Ocapi_error.code_label e.Ocapi_error.e_code)
  in
  unsupported (fun () -> Ocapi_fault.seu_campaign ~runs:(-3) (Gallery.rs ()) ~cycles:8);
  unsupported (fun () -> Ocapi_fault.seu_campaign ~runs:3 (Gallery.rs ()) ~cycles:0);
  let cli =
    Filename.concat (Filename.concat Filename.parent_dir_name "bin") "ocapi_cli.exe"
  in
  List.iter
    (fun (flag, field) ->
      let err = Filename.temp_file "ocapi_fault_cli" ".err" in
      Fun.protect
        ~finally:(fun () -> Sys.remove err)
        (fun () ->
          let out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
          let errfd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
          let pid =
            Unix.create_process cli
              [| cli; "fault"; "--design"; "rs"; "--campaign"; "seu"; flag |]
              Unix.stdin out errfd
          in
          Unix.close out;
          Unix.close errfd;
          let _, status = Unix.waitpid [] pid in
          Alcotest.(check bool) (flag ^ ": exit 1") true (status = Unix.WEXITED 1);
          let msg = In_channel.with_open_bin err In_channel.input_all in
          let mentions sub =
            let n = String.length sub in
            let rec go i =
              i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool)
            (flag ^ ": the error names the field") true
            (mentions "unsupported" && mentions field)))
    [ ("--runs=-3", "runs"); ("--cycles=0", "cycles") ]

(* A counter feeds an untimed kernel that fails on any value outside
   the fault-free run's 0 .. cycles - 1, so only faulty runs reach the
   [Failure]: a bug in a run, not an engine diagnostic, and the
   campaign propagates it instead of recording a detection. *)
let test_seu_stray_exception_propagates () =
  let s8 = Fixed.signed ~width:8 ~frac:0 and cycles = 12 in
  let build () =
    let cnt = Signal.Reg.create Clock.default "stray_cnt" s8 in
    let sfg =
      Sfg.build "stray_count" (fun b ->
          Sfg.Builder.output b "q" (Signal.reg_q cnt);
          Sfg.Builder.assign_resized b cnt Signal.(reg_q cnt +: consti s8 1))
    in
    let fsm = Fsm.create "stray_ctl" in
    let s0 = Fsm.initial fsm "s0" in
    Fsm.(s0 |-- always |+ sfg |-> s0);
    let check =
      Dataflow.Kernel.create "stray_check"
        ~formats:[ ("in", s8); ("out", s8) ]
        ~inputs:[ ("in", 1) ] ~outputs:[ ("out", 1) ]
        (fun consumed ->
          let v = List.hd (List.assoc "in" consumed) in
          if Fixed.to_int v < 0 || Fixed.to_int v >= cycles then
            failwith "stray_check: value outside the fault-free range";
          [ ("out", [ v ]) ])
    in
    let sys = Cycle_system.create "stray" in
    let c = Cycle_system.add_timed sys "counter" fsm in
    let k = Cycle_system.add_untimed sys check in
    let p = Cycle_system.add_output sys "y" in
    ignore (Cycle_system.connect sys (c, "q") [ (k, "in") ]);
    ignore (Cycle_system.connect sys (k, "out") [ (p, "in") ]);
    sys
  in
  List.iter
    (fun engine ->
      match
        Ocapi_fault.seu_campaign ~engine ~runs:20 ~seed:3 (build ()) ~cycles
      with
      | r ->
        Alcotest.failf "%s: campaign completed with %d detections" engine
          r.Ocapi_fault.seu_detected
      | exception Failure _ -> ())
    [ "interp"; "compiled" ]

let suite =
  [
    Alcotest.test_case "zero-fault control: interpreted" `Quick
      test_control_interp;
    Alcotest.test_case "SEU report memoized via Flow.Cache" `Quick
      test_seu_report_cached;
    Alcotest.test_case "zero-fault control: compiled" `Quick
      test_control_compiled;
    Alcotest.test_case "zero-fault control: rtl" `Quick test_control_rtl;
    Alcotest.test_case "stuck-at AND, exhaustive stimuli" `Quick
      test_stuck_at_and_exhaustive;
    Alcotest.test_case "stuck-at AND, weak stimuli" `Quick
      test_stuck_at_and_weak_stimuli;
    Alcotest.test_case "stuck-at HCOR sample" `Quick test_stuck_at_hcor;
    Alcotest.test_case "oscillating fault diagnosed, not fatal" `Quick
      test_oscillation_diagnosed;
    Alcotest.test_case "stuck-at outcomes pinned: rs, cpu" `Quick
      test_digests_rs_cpu;
    Alcotest.test_case "stuck-at outcomes pinned: dect, hcor pre/post" `Quick
      test_digests_dect_hcor;
    Alcotest.test_case "SEU outcomes pinned" `Quick test_seu_digests;
    Alcotest.test_case "SEU over 64 cycles = runs from reset" `Quick
      test_seu_long_window;
    Alcotest.test_case "gallery netlists are acyclic" `Quick test_gallery_acyclic;
    Alcotest.test_case "stuck-at with zero cycles" `Quick test_stuck_at_zero_cycles;
    QCheck_alcotest.to_alcotest prop_batch_outcomes;
    Alcotest.test_case "SEU campaign deterministic" `Quick
      test_seu_deterministic;
    Alcotest.test_case "SEU targets engine-independent" `Quick
      test_seu_targets_engine_independent;
    Alcotest.test_case "SEU bad runs/cycles: structured error, exit 1" `Quick
      test_seu_bad_sizes;
    Alcotest.test_case "SEU stray Failure propagates" `Quick
      test_seu_stray_exception_propagates;
  ]
