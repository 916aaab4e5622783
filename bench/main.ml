(* The evaluation harness: regenerates every table and measurable claim
   of the paper (see DESIGN.md section 2 and EXPERIMENTS.md).

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- t1      -- one target
     targets: t1 t1-json c3 c4 c5 c6 f5 figs fault par micro cache cache-stats
              batch service smoke

   T1  Table 1 (source lines / cycles-per-second / process size for
       HCOR and DECT under four simulation engines); also written
       machine-readably to BENCH_table1.json (t1-json writes only the
       file — the `make bench-json` entry point)
   C3  quantized-value vs bit-vector simulation speed (section 3)
   C4  three-phase vs two-phase cycle scheduling (section 4, fig 6)
   C5  datapath synthesis: operator sharing and run times (section 6)
   C6  generated-test-bench verification of the synthesized netlists
   F5  the DECT architecture audit (fig 5) with per-component gates
   fault  fault-campaign throughput: HCOR stuck-at coverage and a DECT
       SEU campaign; written machine-readably to BENCH_fault.json
   par  parallel SEU campaign scaling over 1/2/4 worker domains, with
       a bit-identity check against the serial report; written
       machine-readably to BENCH_parallel.json (`make bench-par`)
   micro  Bechamel micro-benchmarks of the engines' single cycles
   cache  Flow.Cache cold-vs-warm runs per registry engine, with a
       bit-identity check; written machine-readably to BENCH_cache.json
   cache-stats  print the hit/miss counters recorded in BENCH_cache.json
   batch  job-runner throughput on domain workers, queue-latency
       percentiles and dedup hit rate over a mixed duplicated manifest;
       written machine-readably to BENCH_batch.json (`make bench-batch`)
   service  job-runner throughput on process workers with and without
       seeded chaos kills, journal-replay recovery cost, and a byte-identity
       check of the chaos artifact tree against the clean one; written
       machine-readably to BENCH_service.json (`make bench-service`)
   smoke  the CI smoke stage: every BENCH_*.json writer at a size that
       finishes in seconds (`make bench-smoke`) *)

let gates ?macro_of_kernel sys =
  let _, rep = Synthesize.synthesize ?macro_of_kernel sys in
  rep.Synthesize.total.Netlist.gate_equivalents

(* Every measured rate also lands one line in the perf ledger
   (PERF_LEDGER.jsonl or $OCAPI_LEDGER) — the time series behind
   `ocapi report` and the CI perf gate.  The workload size is folded
   into the bench name so a smoke-sized run and a full run never share
   a baseline. *)
let ledger_entries = ref 0

let ledger ?digest ?domains ~bench ~engine ~unit_ value =
  match
    Ocapi_obs.Ledger.append
      (Ocapi_obs.Ledger.entry ?digest ?domains ~unit_ ~bench ~engine value)
  with
  | Ok () -> incr ledger_entries
  | Error e -> prerr_endline ("ledger: " ^ e)

let ledger_note () =
  if !ledger_entries > 0 then
    Printf.printf "ledger: appended %d entries to %s\n" !ledger_entries
      (Ocapi_obs.Ledger.default_path ())

(* ---- T1: Table 1 ---------------------------------------------------------- *)

let table1_rows () =
  let measure_design ~design ~build ~src_lines ~macro_of_kernel ~cycles_of =
    let ms =
      List.map
        (fun engine ->
          Metrics.measure ~ocaml_source_lines:src_lines ?macro_of_kernel build
            engine ~cycles:(cycles_of engine))
        Metrics.all_engines
    in
    let sys = build () in
    (design, Cycle_system.digest sys, gates ?macro_of_kernel sys, ms)
  in
  let hcor_row =
    measure_design ~design:"HCOR" ~build:Gallery.hcor ~src_lines:(Hcor.source_lines ())
      ~macro_of_kernel:None
      ~cycles_of:(function
        | Metrics.Interpreted_objects -> 4000
        | Metrics.Compiled_code -> 40000
        | Metrics.Native_code -> 400000
        | Metrics.Rt_event_driven -> 1500
        | Metrics.Gate_netlist -> 300)
  in
  let dect_row =
    measure_design ~design:"DECT" ~build:Gallery.dect
      ~src_lines:(Dect_transceiver.source_lines ())
      ~macro_of_kernel:(Some Dect_transceiver.macro_of_kernel)
      ~cycles_of:(function
        | Metrics.Interpreted_objects -> 1000
        | Metrics.Compiled_code -> 20000
        | Metrics.Native_code -> 200000
        | Metrics.Rt_event_driven -> 300
        | Metrics.Gate_netlist -> 1000)
  in
  let rs_row =
    measure_design ~design:"RS" ~build:Gallery.rs ~src_lines:(Rs_codec.source_lines ())
      ~macro_of_kernel:None
      ~cycles_of:(function
        | Metrics.Interpreted_objects -> 4000
        | Metrics.Compiled_code -> 40000
        | Metrics.Native_code -> 400000
        | Metrics.Rt_event_driven -> 2000
        | Metrics.Gate_netlist -> 400)
  in
  let cpu_row =
    measure_design ~design:"CPU" ~build:Gallery.cpu
      ~src_lines:(Acc_cpu.source_lines ())
      ~macro_of_kernel:(Some Ram_cell.macro_of_kernel)
      ~cycles_of:(function
        | Metrics.Interpreted_objects -> 4000
        | Metrics.Compiled_code -> 40000
        | Metrics.Native_code -> 400000
        | Metrics.Rt_event_driven -> 2000
        | Metrics.Gate_netlist -> 400)
  in
  [ hcor_row; dect_row; rs_row; cpu_row ]

let table1_json rows =
  let open Ocapi_obs.Json in
  Obj
    [
      ("table", String "table1");
      ( "description",
        String "performances of interpreted and compiled approaches" );
      ( "designs",
        List
          (List.map
             (fun (design, _digest, gate_count, ms) ->
               Obj
                 [
                   ("design", String design);
                   ("gate_equivalents", Int gate_count);
                   ( "engines",
                     List
                       (List.map
                          (fun m ->
                            Obj
                              [
                                ( "engine",
                                  String
                                    (Metrics.engine_label m.Metrics.m_engine)
                                );
                                ("cycles", Int m.Metrics.m_cycles);
                                ("seconds", Float m.Metrics.m_seconds);
                                ( "cycles_per_second",
                                  Float m.Metrics.m_cycles_per_second );
                                ( "process_bytes",
                                  Int m.Metrics.m_process_bytes );
                                ("source_lines", Int m.Metrics.m_source_lines);
                              ])
                          ms) );
                 ])
             rows) );
    ]

let write_table1_json rows =
  let oc = open_out "BENCH_table1.json" in
  output_string oc (Ocapi_obs.Json.to_string (table1_json rows));
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_table1.json";
  List.iter
    (fun (design, digest, _gate_count, ms) ->
      List.iter
        (fun m ->
          ledger ~digest
            ~bench:("t1:" ^ String.lowercase_ascii design)
            ~engine:(Metrics.engine_label m.Metrics.m_engine)
            ~unit_:"cycles/s" m.Metrics.m_cycles_per_second;
          (* The gate rows additionally feed a registry-named series,
             so the regression gate tracks the synthesized-netlist
             engine under the same key the CLI uses. *)
          if m.Metrics.m_engine = Metrics.Gate_netlist then
            ledger ~digest
              ~bench:("t1:gate:" ^ String.lowercase_ascii design)
              ~engine:"gate" ~unit_:"cycles/s" m.Metrics.m_cycles_per_second)
        ms)
    rows

let t1 () =
  print_endline
    "== T1: Table 1 -- performances of interpreted and compiled approaches ==";
  let rows = table1_rows () in
  List.iter
    (fun (design, _digest, gate_count, ms) ->
      Format.printf "%a@."
        (fun ppf -> Metrics.pp_table ppf ~design ~gates:gate_count)
        ms;
      print_newline ())
    rows;
  write_table1_json rows;
  print_newline ()

(* Machine-readable Table 1 only (the `make bench-json` entry point). *)
let t1_json () = write_table1_json (table1_rows ())

(* ---- C3: quantization vs bit vectors -------------------------------------- *)

let c3 () =
  print_endline "== C3: quantized-value vs bit-vector simulation (section 3) ==";
  let fmt = Fixed.signed ~width:12 ~frac:8 in
  let acc_fmt = Fixed.signed ~width:30 ~frac:16 in
  let rng = Random.State.make [| 3 |] in
  let values =
    Array.init 256 (fun _ ->
        let lo = Fixed.min_mantissa fmt and hi = Fixed.max_mantissa fmt in
        Fixed.create fmt
          (Int64.add lo
             (Random.State.int64 rng (Int64.add (Int64.sub hi lo) 1L))))
  in
  let coefs = Array.init 16 (fun i -> values.(i * 3 mod 256)) in
  (* One "cycle" of work: a 16-tap MAC plus a saturating resize. *)
  let mac_fixed offset =
    let acc = ref (Fixed.zero acc_fmt) in
    for i = 0 to 15 do
      acc :=
        Fixed.resize acc_fmt
          (Fixed.add !acc (Fixed.mul values.((offset + i) land 255) coefs.(i)))
    done;
    Fixed.resize ~overflow:Fixed.Saturate fmt !acc
  in
  let bv_values = Array.map Bitvector.of_fixed values in
  let bv_coefs = Array.map Bitvector.of_fixed coefs in
  let mac_bv offset =
    let acc = ref (Bitvector.of_fixed (Fixed.zero acc_fmt)) in
    for i = 0 to 15 do
      acc :=
        Bitvector.resize acc_fmt
          (Bitvector.add !acc
             (Bitvector.mul bv_values.((offset + i) land 255) bv_coefs.(i)))
    done;
    Bitvector.resize ~overflow:Fixed.Saturate fmt !acc
  in
  let time f n =
    let t0 = Unix.gettimeofday () in
    for k = 0 to n - 1 do
      ignore (Sys.opaque_identity (f k))
    done;
    Unix.gettimeofday () -. t0
  in
  ignore (time mac_fixed 1000);
  ignore (time mac_bv 100);
  let n_fixed = 200_000 and n_bv = 5_000 in
  let t_fixed = time mac_fixed n_fixed in
  let t_bv = time mac_bv n_bv in
  let per_fixed = t_fixed /. float n_fixed and per_bv = t_bv /. float n_bv in
  Printf.printf
    "16-tap MAC: quantized %.2f us, bit-vector %.2f us -> x%.0f speedup\n"
    (per_fixed *. 1e6) (per_bv *. 1e6) (per_bv /. per_fixed);
  print_endline
    "(paper: \"simulation of the quantization rather than the bit-vector\n\
    \ representation allows significant simulation speedups\")";
  print_newline ()

(* ---- C4: three-phase vs two-phase scheduling ------------------------------- *)

let c4 () =
  print_endline "== C4: the three-phase cycle scheduler (section 4, fig 6) ==";
  let s8 = Fixed.signed ~width:8 ~frac:0 in
  let clk = Clock.default in
  let state = Signal.Reg.create clk "c4_state" s8 in
  let sfg =
    Sfg.build "c4_step" (fun b ->
        let reply = Sfg.Builder.input b "reply" s8 in
        Sfg.Builder.output b "query" (Signal.resize s8 (Signal.reg_q state));
        Sfg.Builder.assign_resized b state Signal.(reply +: consti s8 0))
  in
  let fsm = Fsm.create "c4_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let k =
    Dataflow.Kernel.create "c4_incr"
      ~formats:[ ("in", s8); ("out", s8) ]
      ~inputs:[ ("in", 1) ] ~outputs:[ ("out", 1) ]
      (fun consumed ->
        match consumed with
        | [ ("in", [ v ]) ] ->
          [ ("out", [ Fixed.resize s8 (Fixed.add v (Fixed.of_int s8 1)) ]) ]
        | _ -> assert false)
  in
  let sys = Cycle_system.create "c4_fig6" in
  let t = Cycle_system.add_timed sys "stepper" fsm in
  let u = Cycle_system.add_untimed sys k in
  let p = Cycle_system.add_output sys "q" in
  ignore (Cycle_system.connect sys (t, "query") [ (u, "in"); (p, "in") ]);
  ignore (Cycle_system.connect sys (u, "out") [ (t, "reply") ]);
  (match Cycle_system.run sys 100 with
  | () ->
    print_endline
      "three-phase scheduler: fig 6 cycle resolved, 100 cycles simulated"
  | exception Ocapi_error.Error { e_code = Deadlock; _ } ->
    print_endline "three-phase scheduler: DEADLOCK (unexpected!)");
  Cycle_system.reset sys;
  (match Cycle_system.run ~two_phase:true sys 1 with
  | () -> print_endline "two-phase scheduler: resolved (unexpected!)"
  | exception Ocapi_error.Error { e_code = Deadlock; e_nets; _ } ->
    Printf.printf "two-phase scheduler: deadlock, waiting on [%s]\n"
      (String.concat "; " e_nets));
  (* Overhead of the extra phase on a loop-free design. *)
  let sys = Gallery.hcor () in
  let time two_phase =
    Cycle_system.reset sys;
    let t0 = Unix.gettimeofday () in
    Cycle_system.run ~two_phase sys 2000;
    Unix.gettimeofday () -. t0
  in
  ignore (time false);
  let t3 = time false and t2 = time true in
  Printf.printf
    "loop-free design (HCOR, 2000 cycles): three-phase %.3fs, two-phase %.3fs \
     (x%.2f overhead)\n\n"
    t3 t2 (t3 /. t2)

(* ---- C5: datapath synthesis and operator sharing --------------------------- *)

let c5 () =
  print_endline
    "== C5: datapath synthesis with word-level operator sharing (section 6) ==";
  let sys = Gallery.dect () in
  let t0 = Unix.gettimeofday () in
  let _, shared =
    Synthesize.synthesize ~macro_of_kernel:Dect_transceiver.macro_of_kernel sys
  in
  let t_shared = Unix.gettimeofday () -. t0 in
  let _, unshared =
    Synthesize.synthesize
      ~options:{ Synthesize.default_options with Synthesize.share_operators = false }
      ~macro_of_kernel:Dect_transceiver.macro_of_kernel sys
  in
  Printf.printf
    "DECT with sharing:    %6d gate-equivalents (%.2fs total synthesis)\n"
    shared.Synthesize.total.Netlist.gate_equivalents t_shared;
  Printf.printf "DECT without sharing: %6d gate-equivalents\n"
    unshared.Synthesize.total.Netlist.gate_equivalents;
  (* The post-synthesis cleanup the paper delegates to logic synthesis. *)
  let nl, _ =
    Synthesize.synthesize ~macro_of_kernel:Dect_transceiver.macro_of_kernel sys
  in
  let _, opt_stats = Netopt.run nl in
  Format.printf "post-optimization (\"Synopsys DC\" role): %a@." Netopt.pp_stats
    opt_stats;
  List.iter
    (fun name ->
      match
        ( List.find_opt
            (fun c -> c.Synthesize.cr_name = name)
            shared.Synthesize.components,
          List.find_opt
            (fun c -> c.Synthesize.cr_name = name)
            unshared.Synthesize.components )
      with
      | Some s, Some u ->
        Printf.printf
          "  %-10s %2d instr: %2d ops -> %2d units; %5d gates shared vs %5d \
           unshared (%.3fs)\n"
          name s.Synthesize.cr_instructions s.Synthesize.cr_ops_before_sharing
          (List.fold_left (fun a (_, n) -> a + n) 0 s.Synthesize.cr_shared_units)
          s.Synthesize.cr_gate_equivalents u.Synthesize.cr_gate_equivalents
          s.Synthesize.cr_seconds
      | _, _ -> ())
    [ "dp_equ"; "dp_mac0"; "dp_sum"; "dp_corr" ];
  (match
     List.find_opt
       (fun c -> c.Synthesize.cr_name = "dp_equ")
       shared.Synthesize.components
   with
  | Some c ->
    Printf.printf
      "57-instruction datapath synthesized in %.3fs (paper: \"less than 15 \
       minutes\")\n"
      c.Synthesize.cr_seconds
  | None -> ());
  print_newline ()

(* ---- C6: generated test benches verify the netlists ------------------------ *)

let c6 () =
  print_endline "== C6: generated-test-bench verification (section 6, fig 8) ==";
  let hcor = Gallery.hcor () in
  let r = Synthesize.verify hcor ~cycles:400 in
  Printf.printf "HCOR netlist:  %5d vectors, %d mismatches\n"
    r.Synthesize.vectors_checked
    (List.length r.Synthesize.mismatches);
  let dect = Gallery.dect () in
  let r =
    Synthesize.verify ~macro_of_kernel:Dect_transceiver.macro_of_kernel dect
      ~cycles:120
  in
  Printf.printf "DECT netlist:  %5d vectors, %d mismatches\n"
    r.Synthesize.vectors_checked
    (List.length r.Synthesize.mismatches);
  let vectors = Testbench.record hcor ~cycles:50 in
  let tb = Testbench.vhdl hcor vectors in
  Printf.printf
    "generated VHDL test bench: %d lines, %d input and %d output vectors\n\n"
    (List.length (String.split_on_char '\n' tb))
    (List.length vectors.Testbench.tb_inputs)
    (List.length vectors.Testbench.tb_outputs)

(* ---- F5: architecture audit -------------------------------------------------- *)

let f5 () =
  print_endline "== F5: the DECT transceiver architecture (fig 5) ==";
  let d =
    Dect_transceiver.create
      ~stimulus:(fun _ -> Some (Fixed.zero Dect_transceiver.sample_format))
      ()
  in
  let sys = d.Dect_transceiver.system in
  Printf.printf "timed components: %d (VLIW + PC controller + 22 datapaths)\n"
    (List.length (Cycle_system.timed_components sys));
  Printf.printf "untimed RAM cells: %d\n"
    (List.length (Cycle_system.untimed_components sys));
  let counts = List.map snd d.Dect_transceiver.instruction_counts in
  Printf.printf "instructions per datapath: %d .. %d (paper: 2 .. 57)\n"
    (List.fold_left min 99 counts)
    (List.fold_left max 0 counts);
  let _, rep =
    Synthesize.synthesize ~macro_of_kernel:Dect_transceiver.macro_of_kernel sys
  in
  Printf.printf "total: %d gate-equivalents (paper: 75 Kgates)\n"
    rep.Synthesize.total.Netlist.gate_equivalents;
  let nl, _ =
    Synthesize.synthesize ~macro_of_kernel:Dect_transceiver.macro_of_kernel sys
  in
  let depth, cyclic = Netlist.combinational_depth nl in
  Printf.printf
    "longest combinational chain: %d elements (%d on gated selection cycles)\n"
    depth cyclic;
  List.iter
    (fun c ->
      Printf.printf "  %-12s %3d instr %6d gates\n" c.Synthesize.cr_name
        c.Synthesize.cr_instructions c.Synthesize.cr_gate_equivalents)
    rep.Synthesize.components;
  print_newline ()

(* ---- figs: the paper's diagrams, regenerated ------------------------------- *)

let figs () =
  print_endline "== figs: the paper's diagrams regenerated from the capture ==";
  let write path text =
    match Ocapi_obs.File.publish path text with
    | Ok () -> Printf.printf "wrote %s\n" path
    | Error e -> failwith e
  in
  (* Fig 2: the VLIW controller's execute/hold machine. *)
  let d =
    Dect_transceiver.create
      ~stimulus:(fun _ -> Some (Fixed.zero Dect_transceiver.sample_format))
      ()
  in
  (match Cycle_system.timed_components d.Dect_transceiver.system with
  | (_, vliw) :: _ -> write "_generated/fig2_vliw_controller.dot" (Fsm.to_dot vliw)
  | [] -> ());
  (* Fig 5: the system architecture. *)
  write "_generated/fig5_dect_architecture.dot"
    (Cycle_system.to_dot d.Dect_transceiver.system);
  (* Fig 4: the example machine of the paper, spelled in the DSL. *)
  let clk = Clock.default in
  let eof = Signal.Reg.create clk "fig4_eof" Fixed.bit_format in
  let f = Fsm.create "f" in
  let s0 = Fsm.initial f "s0" and s1 = Fsm.state f "s1" in
  Fsm.(s0 |-- always |+ Sfg.nop "sfg1" |-> s1);
  Fsm.(s1 |-- cnd (Signal.reg_q eof) |+ Sfg.nop "sfg2" |-> s1);
  Fsm.(s1 |-- cnd Signal.(~:(reg_q eof)) |+ Sfg.nop "sfg3" |-> s0);
  write "_generated/fig4_example_fsm.dot" (Fsm.to_dot f);
  (* A waveform of the transceiver for good measure. *)
  write "_generated/dect_waves.vcd"
    (Vcd.record d.Dect_transceiver.system ~cycles:120);
  print_newline ()

(* ---- Bechamel micro-benchmarks ------------------------------------------------ *)

let micro () =
  print_endline "== micro: Bechamel single-cycle benchmarks (HCOR) ==";
  let open Bechamel in
  (* One session per registry engine, each on its own freshly built design so
     no two engine sessions share mutable register state. *)
  let sessions =
    List.map
      (fun e ->
        let module E = (val e : Ocapi_engine.ENGINE) in
        let ses = E.make (Gallery.hcor ()) in
        ses.Ocapi_engine.ses_reset ();
        ses)
      (Ocapi_engine.all ())
  in
  let nl, _ = Synthesize.synthesize (Gallery.hcor ()) in
  let gate_sim = Netlist.Sim.create nl in
  Netlist.Sim.settle gate_sim;
  (* One Test.make per Table 1 row. *)
  let tests =
    Test.make_grouped ~name:"table1"
      (List.map
         (fun ses ->
           Test.make ~name:ses.Ocapi_engine.ses_engine
             (Staged.stage (fun () -> ses.Ocapi_engine.ses_step ())))
         sessions
      @ [
          (let tick = ref 0 in
           Test.make ~name:"gate-netlist"
             (Staged.stage (fun () ->
                  incr tick;
                  Netlist.Sim.set_input gate_sim "sample_in"
                    (Int64.of_int ((!tick * 7 mod 61) - 30));
                  Netlist.Sim.settle gate_sim;
                  Netlist.Sim.clock gate_sim)));
        ])
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~kde:(Some 500) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ ns ] -> Printf.printf "  %-40s %12.0f ns/cycle\n" name ns
      | Some _ | None -> Printf.printf "  %-40s (no estimate)\n" name)
    ols;
  List.iter (fun ses -> ses.Ocapi_engine.ses_close ()) sessions;
  print_newline ()

(* ---- fault: fault-campaign coverage and throughput ----------------------- *)

(* [sa_faults]/[seu_runs] scale the campaigns: the default is the full
   benchmark, the CI smoke stage passes small values (see [smoke]). *)
let fault_bench ?(sa_faults = 200) ?(seu_runs = 1000) () =
  print_endline "== fault: stuck-at coverage and SEU campaign throughput ==";
  let hcor = Gallery.hcor () in
  let dect = Gallery.dect () in
  let t0 = Unix.gettimeofday () in
  let cmp =
    Ocapi_fault.stuck_at_optimized ~max_faults:sa_faults ~seed:1 hcor
      ~cycles:24
  in
  let sa = cmp.Ocapi_fault.sc_pre in
  let sa_seconds = Unix.gettimeofday () -. t0 in
  let sa_rate =
    float_of_int (sa.Ocapi_fault.st_simulated
                  + cmp.Ocapi_fault.sc_post.Ocapi_fault.st_simulated)
    /. sa_seconds
  in
  Printf.printf
    "hcor stuck-at: universe %d, collapsed %d, simulated %d, coverage %.1f%% \
     (%.1f faults/s)\n"
    sa.Ocapi_fault.st_universe sa.Ocapi_fault.st_collapsed
    sa.Ocapi_fault.st_simulated
    (100.0 *. sa.Ocapi_fault.st_coverage)
    sa_rate;
  Printf.printf
    "hcor stuck-at post-Netopt: universe %d, simulated %d, coverage %.1f%%\n"
    cmp.Ocapi_fault.sc_post.Ocapi_fault.st_universe
    cmp.Ocapi_fault.sc_post.Ocapi_fault.st_simulated
    (100.0 *. cmp.Ocapi_fault.sc_post.Ocapi_fault.st_coverage);
  let t1 = Unix.gettimeofday () in
  let seu =
    Ocapi_fault.seu_campaign ~engine:"compiled" ~runs:seu_runs ~seed:1 dect
      ~cycles:64
  in
  let seu_seconds = Unix.gettimeofday () -. t1 in
  let seu_rate = float_of_int seu.Ocapi_fault.seu_runs /. seu_seconds in
  Printf.printf
    "dect seu (%s): %d runs -- masked %d, sdc %d, detected %d (%.0f runs/s)\n"
    seu.Ocapi_fault.seu_engine seu.Ocapi_fault.seu_runs
    seu.Ocapi_fault.seu_masked seu.Ocapi_fault.seu_sdc
    seu.Ocapi_fault.seu_detected seu_rate;
  (* The gallery designs ride the same campaign shapes, so the perf
     gate tracks them from their first commit. *)
  let gallery_seu name sys ~cycles =
    let t = Unix.gettimeofday () in
    let report =
      Ocapi_fault.seu_campaign ~engine:"compiled" ~runs:seu_runs ~seed:1 sys
        ~cycles
    in
    let seconds = Unix.gettimeofday () -. t in
    let rate = float_of_int report.Ocapi_fault.seu_runs /. seconds in
    Printf.printf
      "%s seu (%s): %d runs -- masked %d, sdc %d, detected %d (%.0f runs/s)\n"
      name report.Ocapi_fault.seu_engine report.Ocapi_fault.seu_runs
      report.Ocapi_fault.seu_masked report.Ocapi_fault.seu_sdc
      report.Ocapi_fault.seu_detected rate;
    ledger
      ~digest:(Cycle_system.digest sys)
      ~bench:(Printf.sprintf "fault:seu:%s:r%d" name seu_runs)
      ~engine:"compiled" ~unit_:"runs/s" rate;
    (report, seconds, rate)
  in
  let seu_rs, rs_seconds, rs_rate = gallery_seu "rs" (Gallery.rs ()) ~cycles:45 in
  let seu_cpu, cpu_seconds, cpu_rate =
    gallery_seu "cpu" (Gallery.cpu ()) ~cycles:Acc_cpu.check_cycles
  in
  let json =
    Ocapi_obs.Json.(
      Obj
        [
          ( "stuck_at",
            Obj
              [
                ("report", Ocapi_fault.stuck_report_json sa);
                ("optimized", Ocapi_fault.stuck_compare_json cmp);
                ("seconds", Float sa_seconds);
                ("faults_per_second", Float sa_rate);
              ] );
          ( "seu",
            Obj
              [
                ("report", Ocapi_fault.seu_report_json seu);
                ("seconds", Float seu_seconds);
                ("runs_per_second", Float seu_rate);
              ] );
          ( "seu_rs",
            Obj
              [
                ("report", Ocapi_fault.seu_report_json seu_rs);
                ("seconds", Float rs_seconds);
                ("runs_per_second", Float rs_rate);
              ] );
          ( "seu_cpu",
            Obj
              [
                ("report", Ocapi_fault.seu_report_json seu_cpu);
                ("seconds", Float cpu_seconds);
                ("runs_per_second", Float cpu_rate);
              ] );
        ])
  in
  let oc = open_out "BENCH_fault.json" in
  output_string oc (Ocapi_obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_fault.json";
  ledger
    ~digest:(Cycle_system.digest hcor)
    ~bench:(Printf.sprintf "fault:stuck-at:hcor:f%d" sa_faults)
    ~engine:"gates" ~unit_:"faults/s" sa_rate;
  ledger
    ~digest:(Cycle_system.digest hcor)
    ~bench:(Printf.sprintf "fault:stuck-at-opt:hcor:f%d" sa_faults)
    ~engine:"gates" ~unit_:"coverage"
    cmp.Ocapi_fault.sc_post.Ocapi_fault.st_coverage;
  ledger
    ~digest:(Cycle_system.digest dect)
    ~bench:(Printf.sprintf "fault:seu:dect:r%d" seu_runs)
    ~engine:"compiled" ~unit_:"runs/s" seu_rate;
  print_newline ()

(* ---- par: parallel campaign scaling --------------------------------------- *)

let par () =
  print_endline "== par: parallel SEU campaign scaling over worker domains ==";
  let runs = 400 and cycles = 48 and seed = 1 in
  let campaign domains =
    let t0 = Unix.gettimeofday () in
    let report =
      Ocapi_fault.seu_campaign ~engine:"compiled" ~runs ~seed ~domains
        ~replicate:Gallery.dect (Gallery.dect ()) ~cycles
    in
    (report, Unix.gettimeofday () -. t0)
  in
  ignore (campaign 1) (* warm-up *);
  let serial, serial_seconds = campaign 1 in
  Printf.printf "available domains: %d\n" (Ocapi_parallel.available_domains ());
  let rows =
    List.map
      (fun domains ->
        let report, seconds =
          if domains = 1 then (serial, serial_seconds) else campaign domains
        in
        let rate = float_of_int runs /. seconds in
        let identical = report = serial in
        Printf.printf
          "dect seu, %d domain(s): %.2fs, %.0f runs/s, x%.2f vs serial%s\n"
          domains seconds rate (serial_seconds /. seconds)
          (if identical then "" else "  REPORT DIFFERS FROM SERIAL!");
        (domains, seconds, rate, identical))
      [ 1; 2; 4 ]
  in
  let json =
    Ocapi_obs.Json.(
      Obj
        [
          ("design", String "dect");
          ("engine", String "compiled");
          ("runs", Int runs);
          ("cycles", Int cycles);
          ("seed", Int seed);
          ("available_domains", Int (Ocapi_parallel.available_domains ()));
          ("serial_seconds", Float serial_seconds);
          ( "rows",
            List
              (List.map
                 (fun (domains, seconds, rate, identical) ->
                   Obj
                     [
                       ("domains", Int domains);
                       ("seconds", Float seconds);
                       ("runs_per_second", Float rate);
                       ("speedup", Float (serial_seconds /. seconds));
                       ("report_identical_to_serial", Bool identical);
                     ])
                 rows) );
        ])
  in
  let oc = open_out "BENCH_parallel.json" in
  output_string oc (Ocapi_obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_parallel.json";
  let dect_digest = Cycle_system.digest (Gallery.dect ()) in
  List.iter
    (fun (domains, _seconds, rate, _identical) ->
      ledger ~digest:dect_digest ~domains
        ~bench:(Printf.sprintf "par:seu:dect:d%d" domains)
        ~engine:"compiled" ~unit_:"runs/s" rate)
    rows;
  print_newline ()

(* ---- cache: keyed result cache, cold vs warm ------------------------------ *)

let cache_dir = "_generated/cache"

let cache_bench () =
  print_endline "== cache: Flow.Cache cold vs warm simulation runs (HCOR) ==";
  (* Start genuinely cold: drop any disk entries left by a previous run. *)
  if Sys.file_exists cache_dir then
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".cache" then
          Sys.remove (Filename.concat cache_dir f))
      (Sys.readdir cache_dir);
  Flow.Cache.enable ~dir:cache_dir ();
  Flow.Cache.clear ();
  Flow.Cache.reset_stats ();
  let cycles = 400 in
  let sys = Gallery.hcor () in
  let rows =
    List.map
      (fun e ->
        let engine = Ocapi_engine.name_of e in
        let time () =
          let t0 = Unix.gettimeofday () in
          let h = Flow.simulate ~engine sys ~cycles in
          (h, Unix.gettimeofday () -. t0)
        in
        let cold_histories, cold_seconds = time () in
        let warm_histories, warm_seconds = time () in
        let identical = cold_histories = warm_histories in
        Printf.printf "%-10s cold %.4fs, warm %.4fs (x%.1f)%s\n" engine
          cold_seconds warm_seconds
          (cold_seconds /. warm_seconds)
          (if identical then "" else "  WARM RUN DIFFERS FROM COLD!");
        (engine, cold_seconds, warm_seconds, identical))
      (Ocapi_engine.all ())
  in
  let st = Flow.Cache.stats () in
  Printf.printf "cache: %d hits (%d from disk), %d misses, %d entries\n"
    st.Flow.Cache.hits st.Flow.Cache.disk_hits st.Flow.Cache.misses
    st.Flow.Cache.entries;
  let json =
    Ocapi_obs.Json.(
      Obj
        [
          ("design", String "hcor");
          ("cycles", Int cycles);
          ("hits", Int st.Flow.Cache.hits);
          ("disk_hits", Int st.Flow.Cache.disk_hits);
          ("misses", Int st.Flow.Cache.misses);
          ("entries", Int st.Flow.Cache.entries);
          ("disk_writes", Int st.Flow.Cache.disk_writes);
          ( "rows",
            List
              (List.map
                 (fun (engine, cold_seconds, warm_seconds, identical) ->
                   Obj
                     [
                       ("engine", String engine);
                       ("cold_seconds", Float cold_seconds);
                       ("warm_seconds", Float warm_seconds);
                       ("speedup", Float (cold_seconds /. warm_seconds));
                       ("warm_identical_to_cold", Bool identical);
                     ])
                 rows) );
        ])
  in
  let oc = open_out "BENCH_cache.json" in
  output_string oc (Ocapi_obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_cache.json";
  Flow.Cache.disable ();
  Flow.Cache.clear ();
  print_newline ()

(* ---- batch: job-queue throughput, queue latency and dedup ------------------ *)

(* A mixed campaign manifest with systematic duplicates: every job is
   submitted twice, so half the submissions should coalesce.  [seeds]
   scales the SEU sweep; the smoke stage shrinks everything. *)
let batch_requests ~seeds ~seu_runs =
  let seu seed =
    Printf.sprintf
      {|{"kind": "seu", "design": "hcor", "engine": "compiled", "runs": %d, "cycles": 32, "seed": %d}|}
      seu_runs seed
  in
  let simulate engine =
    Printf.sprintf
      {|{"kind": "simulate", "design": "hcor", "engine": %S, "cycles": 200, "priority": "high"}|}
      engine
  in
  let base =
    List.init seeds (fun i -> seu (i + 1))
    @ List.map simulate [ "interp"; "compiled"; "rtl" ]
    @ [
        {|{"kind": "stuck-at", "design": "hcor", "cycles": 24, "max_faults": 60, "priority": "low"}|};
        {|{"kind": "engine-sweep", "design": "hcor", "cycles": 120}|};
      ]
  in
  List.map
    (fun line ->
      match Ocapi_obs.Json.of_string line with
      | Ok j -> j
      | Error e -> failwith e)
    (base @ base)

let batch_bench ?(domains = 2) ?(seeds = 6) ?(seu_runs = 150) () =
  Printf.printf
    "== batch: job-queue throughput and dedup (%d worker domains) ==\n" domains;
  let requests = batch_requests ~seeds ~seu_runs in
  let jobs = List.length requests in
  let t0 = Unix.gettimeofday () in
  let s, telemetry =
    Ocapi_obs.run_with_telemetry ~label:"batch" (fun () ->
        Ocapi_service.serve
          {
            Ocapi_service.default_config with
            cf_workers = domains;
            cf_worker_kind = Ocapi_service.Domains;
            cf_artifact_dir = "_generated/batch-bench";
            cf_retries = 1;
            cf_on_line =
              Some
                (fun line ->
                  if String.length line >= 6 && String.sub line 0 6 = "failed" then
                    Printf.printf "  %s\n" line);
          }
          ~requests)
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let throughput = float_of_int jobs /. seconds in
  (* Queue-latency percentiles out of the runner's queue-wait histogram. *)
  let p50, p95 =
    match List.assoc_opt "service.queue.wait_us" telemetry.Ocapi_obs.rp_metrics with
    | Some (Ocapi_obs.Histogram_v hs) ->
      (Ocapi_obs.hist_quantile hs 0.5, Ocapi_obs.hist_quantile hs 0.95)
    | _ -> (Float.nan, Float.nan)
  in
  (* Every admitted job of this manifest runs once and ends completed or
     failed; each completion wrote exactly one artifact. *)
  let executed = s.Ocapi_service.sm_completed + s.sm_failed in
  let hit_rate = float_of_int s.sm_deduped /. float_of_int (max 1 s.sm_submitted) in
  Printf.printf
    "%d jobs in %.2fs -> %.1f jobs/s; queue wait p50 %.0f us, p95 %.0f us\n"
    jobs seconds throughput p50 p95;
  Printf.printf
    "dedup: %d submitted, %d executed, %d coalesced (%.0f%% hit rate), %d \
     artifacts\n"
    s.sm_submitted executed s.sm_deduped (100.0 *. hit_rate) s.sm_completed;
  let json =
    Ocapi_obs.Json.(
      Obj
        [
          ("jobs", Int jobs);
          ("domains", Int domains);
          ("seconds", Float seconds);
          ("throughput_jobs_per_second", Float throughput);
          ("queue_wait_p50_us", Float p50);
          ("queue_wait_p95_us", Float p95);
          ( "dedup",
            Obj
              [
                ("submitted", Int s.sm_submitted);
                ("executed", Int executed);
                ("deduped", Int s.sm_deduped);
                ("hit_rate", Float hit_rate);
              ] );
          ("completed", Int s.sm_completed);
          ("failed", Int s.sm_failed);
          ("artifacts_written", Int s.sm_completed);
        ])
  in
  let oc = open_out "BENCH_batch.json" in
  output_string oc (Ocapi_obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_batch.json";
  ledger ~domains
    ~bench:(Printf.sprintf "batch:mixed:j%d:d%d" jobs domains)
    ~engine:"batch" ~unit_:"jobs/s" throughput;
  print_newline ()

(* ---- service: the job runner on process workers --------------------------- *)

(* Throughput of the job runner on isolated worker processes, with and
   without chaos injection, plus the cost of a journal replay.  The
   server spawns `ocapi worker` subprocesses, so the CLI executable is
   located relative to this bench binary inside _build; when it is not
   there (bench built alone) the target degrades to a notice. *)
let service_bench ?(jobs = 8) ?(workers = 2) ?(seu_runs = 60) () =
  Printf.printf "== service: supervised worker processes (%d workers) ==\n"
    workers;
  let cli =
    let dir = Filename.dirname Sys.executable_name in
    Filename.concat (Filename.concat (Filename.dirname dir) "bin") "ocapi_cli.exe"
  in
  if not (Sys.file_exists cli) then
    Printf.printf "service bench skipped: %s not built\n\n" cli
  else begin
    let requests =
      List.init jobs (fun i ->
          let line =
            if i mod 2 = 0 then
              Printf.sprintf
                "{\"kind\": \"simulate\", \"design\": \"hcor\", \"engine\": \
                 \"compiled\", \"cycles\": 64, \"seed\": %d}"
                (i + 1)
            else
              Printf.sprintf
                "{\"kind\": \"seu\", \"design\": \"hcor\", \"engine\": \
                 \"compiled\", \"runs\": %d, \"cycles\": 32, \"seed\": %d}"
                seu_runs (i + 1)
          in
          match Ocapi_obs.Json.of_string line with
          | Ok j -> j
          | Error e -> failwith e)
    in
    let rm_rf dir =
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    in
    let run ~tag ~chaos ~fresh =
      let state = Filename.concat "_generated/service-bench" (tag ^ "-state") in
      let artifacts =
        Filename.concat "_generated/service-bench" (tag ^ "-artifacts")
      in
      if fresh then begin
        rm_rf state;
        rm_rf artifacts
      end;
      let cfg =
        {
          Ocapi_service.default_config with
          cf_workers = workers;
          cf_artifact_dir = artifacts;
          cf_worker_kind =
            Ocapi_service.Processes { cmd = [ cli; "worker" ]; state_dir = state };
          cf_retries = 4;
          cf_backoff_base = 0.05;
          cf_backoff_cap = 0.5;
          cf_chaos = chaos;
        }
      in
      let t0 = Unix.gettimeofday () in
      let s = Ocapi_service.serve cfg ~requests in
      (Unix.gettimeofday () -. t0, artifacts, s)
    in
    let clean_seconds, clean_artifacts, _ = run ~tag:"clean" ~chaos:None ~fresh:true in
    let chaos_cfg =
      Some
        { Ocapi_service.ch_seed = 11; ch_kill_prob = 0.4; ch_kill_delay = 0.3 }
    in
    let chaos_seconds, chaos_artifacts, chaos =
      run ~tag:"chaos" ~chaos:chaos_cfg ~fresh:true
    in
    (* A third pass over the chaos run's journal with the same manifest:
       everything dedups, so this prices replay + admission alone — the
       fixed cost a restarted server pays before resuming real work. *)
    let recovery_seconds, _, recovery = run ~tag:"chaos" ~chaos:None ~fresh:false in
    (* Chaos must not have cost determinism: both trees byte-identical. *)
    let converged =
      let names dir = List.sort compare (Array.to_list (Sys.readdir dir)) in
      let read f =
        let ic = open_in_bin f in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      names clean_artifacts = names chaos_artifacts
      && List.for_all
           (fun f ->
             read (Filename.concat clean_artifacts f)
             = read (Filename.concat chaos_artifacts f))
           (names clean_artifacts)
    in
    let rate jobs seconds = float_of_int jobs /. seconds in
    Printf.printf
      "clean: %d jobs in %.2fs -> %.1f jobs/s\n\
       chaos: %d jobs in %.2fs -> %.1f jobs/s (%d chaos kills, %d crashes, %d \
       retries)\n\
       recovery replay: %.3fs (%d deduped, 0 re-executed)\n\
       converged: %b (chaos artifact tree byte-identical to clean)\n"
      jobs clean_seconds (rate jobs clean_seconds) jobs chaos_seconds
      (rate jobs chaos_seconds) chaos.Ocapi_service.sm_chaos_kills
      chaos.Ocapi_service.sm_crashes chaos.Ocapi_service.sm_retries
      recovery_seconds recovery.Ocapi_service.sm_deduped converged;
    if not converged then
      print_endline "service bench: WARNING -- chaos run diverged from clean run";
    let json =
      Ocapi_obs.Json.(
        Obj
          [
            ("jobs", Int jobs);
            ("workers", Int workers);
            ("clean_seconds", Float clean_seconds);
            ("clean_throughput_jobs_per_second", Float (rate jobs clean_seconds));
            ("chaos_seconds", Float chaos_seconds);
            ("chaos_throughput_jobs_per_second", Float (rate jobs chaos_seconds));
            ( "chaos",
              Obj
                [
                  ("kills", Int chaos.Ocapi_service.sm_chaos_kills);
                  ("crashes", Int chaos.Ocapi_service.sm_crashes);
                  ("retries", Int chaos.Ocapi_service.sm_retries);
                  ("completed", Int chaos.Ocapi_service.sm_completed);
                  ("poisoned", Int chaos.Ocapi_service.sm_poisoned);
                ] );
            ("recovery_replay_seconds", Float recovery_seconds);
            ("recovery_deduped", Int recovery.Ocapi_service.sm_deduped);
            ("converged", Bool converged);
          ])
    in
    let oc = open_out "BENCH_service.json" in
    output_string oc (Ocapi_obs.Json.to_string json);
    output_char oc '\n';
    close_out oc;
    print_endline "wrote BENCH_service.json";
    ledger
      ~bench:(Printf.sprintf "service:clean:j%d:w%d" jobs workers)
      ~engine:"service" ~unit_:"jobs/s" (rate jobs clean_seconds);
    ledger
      ~bench:(Printf.sprintf "service:chaos:j%d:w%d" jobs workers)
      ~engine:"service" ~unit_:"jobs/s" (rate jobs chaos_seconds);
    ledger
      ~bench:(Printf.sprintf "service:recovery-replay:j%d" jobs)
      ~engine:"service" ~unit_:"jobs/s" (rate jobs recovery_seconds);
    print_newline ()
  end

(* ---- native: cold compile vs warm load of the dynlinked engine ------------ *)

(* Two ledger series: [native:compile] tracks how fast the emit +
   ocamlopt + Dynlink path builds a cold DECT plugin (as a rate,
   compiles/s, so the perf gate's higher-is-better verdicts apply), and
   [native:run] tracks the steady-state cycle rate of the loaded
   plugin.  The warm second session proves the artifact is loaded once:
   zero compiler invocations, one more reuse of the loaded factory. *)
let native_bench ?(cycles = 64000) () =
  print_endline "== native: dynlinked plugin compile/load/run (DECT) ==";
  match Ocapi_native.availability () with
  | Error e ->
    Printf.printf "native engine unavailable -- skipping (%s)\n"
      (Ocapi_error.to_string e)
  | Ok () ->
    let sys = Gallery.dect () in
    let digest = Cycle_system.digest sys in
    Ocapi_native.clear_disk_cache ();
    Flow.Cache.clear ();
    Ocapi_native.reset_stats ();
    let (module E : Ocapi_engine.ENGINE) = Ocapi_engine.get "native" in
    let t0 = Unix.gettimeofday () in
    let ses = E.make sys in
    let compile_seconds = Unix.gettimeofday () -. t0 in
    let run_seconds =
      Fun.protect ~finally:ses.Ocapi_engine.ses_close (fun () ->
          ses.Ocapi_engine.ses_reset ();
          for _ = 1 to min 1000 cycles do ses.Ocapi_engine.ses_step () done;
          ses.Ocapi_engine.ses_reset ();
          let t0 = Unix.gettimeofday () in
          for _ = 1 to cycles do ses.Ocapi_engine.ses_step () done;
          Unix.gettimeofday () -. t0)
    in
    let cold = Ocapi_native.stats () in
    let t0 = Unix.gettimeofday () in
    let warm_ses = E.make sys in
    let warm_load_seconds = Unix.gettimeofday () -. t0 in
    warm_ses.Ocapi_engine.ses_close ();
    let warm = Ocapi_native.stats () in
    let rate = float_of_int cycles /. run_seconds in
    Printf.printf
      "cold: %.3fs to emit+compile+load, then %d cycles at %.0f cycles/s\n"
      compile_seconds cycles rate;
    Printf.printf
      "warm: %.4fs to instantiate (%d compiler invocations, %d reuses)\n"
      warm_load_seconds
      (warm.Ocapi_native.compiles - cold.Ocapi_native.compiles)
      (warm.Ocapi_native.reuses - cold.Ocapi_native.reuses);
    if warm.Ocapi_native.compiles <> cold.Ocapi_native.compiles then
      print_endline "  WARM SESSION RAN THE COMPILER!";
    ledger ~digest ~bench:"native:compile" ~engine:"native"
      ~unit_:"compiles/s"
      (1.0 /. compile_seconds);
    ledger ~digest ~bench:"native:run" ~engine:"native" ~unit_:"cycles/s" rate;
    print_newline ()

(* The CI smoke stage: every BENCH_*.json writer at a size that finishes
   in seconds, so the pipeline uploads fresh artifacts on each run. *)
let smoke () =
  t1_json ();
  fault_bench ~sa_faults:40 ~seu_runs:100 ();
  batch_bench ~domains:2 ~seeds:2 ~seu_runs:40 ();
  service_bench ~jobs:4 ~seu_runs:30 ();
  cache_bench ();
  native_bench ~cycles:8000 ()

(* Print the counters recorded in BENCH_cache.json (the `make cache-stats`
   entry point).  A naive scanner keeps this free of a JSON-parsing dep. *)
let cache_stats () =
  if not (Sys.file_exists "BENCH_cache.json") then
    print_endline
      "BENCH_cache.json not found -- run `dune exec bench/main.exe -- cache` \
       (or `make bench-json`) first"
  else begin
    let ic = open_in "BENCH_cache.json" in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let int_field key =
      let needle = Printf.sprintf "\"%s\":" key in
      let n = String.length text and m = String.length needle in
      let rec find i =
        if i + m > n then None
        else if String.sub text i m = needle then Some (i + m)
        else find (i + 1)
      in
      match find 0 with
      | None -> None
      | Some pos ->
        let i = ref pos in
        while !i < n && text.[!i] = ' ' do incr i done;
        let j = ref !i in
        while
          !j < n && (match text.[!j] with '0' .. '9' | '-' -> true | _ -> false)
        do
          incr j
        done;
        if !j > !i then int_of_string_opt (String.sub text !i (!j - !i))
        else None
    in
    match
      (int_field "hits", int_field "disk_hits", int_field "misses",
       int_field "entries")
    with
    | Some hits, Some disk_hits, Some misses, Some entries ->
      Printf.printf "cache: %d hits (%d from disk), %d misses, %d entries\n"
        hits disk_hits misses entries
    | _ -> print_endline "BENCH_cache.json: no cache counters found"
  end

let () =
  let targets =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as rest) -> rest
    | _ ->
      [
        "t1"; "c3"; "c4"; "c5"; "c6"; "f5"; "figs"; "fault"; "par"; "micro";
        "cache"; "batch";
      ]
  in
  List.iter
    (fun t ->
      match t with
      | "t1" -> t1 ()
      | "t1-json" -> t1_json ()
      | "c3" -> c3 ()
      | "c4" -> c4 ()
      | "c5" -> c5 ()
      | "c6" -> c6 ()
      | "f5" -> f5 ()
      | "figs" -> figs ()
      | "fault" -> fault_bench ()
      | "par" -> par ()
      | "micro" -> micro ()
      | "cache" -> cache_bench ()
      | "cache-stats" -> cache_stats ()
      | "batch" -> batch_bench ()
      | "service" -> service_bench ()
      | "native" -> native_bench ()
      | "smoke" -> smoke ()
      | other -> Printf.printf "unknown bench target %s\n" other)
    targets;
  ledger_note ()
