(* The paper-claim reproductions that EXPERIMENTS.md cites.  Speed is
   measured by bench/perf alone; these targets print the paper's tables
   and claims.

     dune exec bench/main.exe            -- every target
     dune exec bench/main.exe -- t1 c5   -- the named ones
     targets: t1 c3 c4 c5 c6 f5 figs micro

   T1  Table 1 (source lines / cycles-per-second / process size for the
       four gallery designs under the five simulation engines)
   C3  quantized-value vs bit-vector simulation speed (section 3)
   C4  three-phase vs two-phase cycle scheduling (section 4, fig 6)
   C5  datapath synthesis: operator sharing and run times (section 6)
   C6  generated-test-bench verification of the synthesized netlists
   F5  the DECT architecture audit (fig 5) with per-component gates
   figs  the paper's diagrams, written under _generated/
   micro  Bechamel micro-benchmarks of the engines' single cycles

   A claim whose own check fails (C4's deadlock outcomes, C6's netlist
   mismatches) or an unknown target makes the program exit 1, after
   the remaining targets have run. *)

(* Set by a failed check; read once every target has run. *)
let failed = ref false

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      failed := true;
      print_endline msg)
    fmt

let gates sys =
  let _, rep = Synthesize.synthesize sys in
  rep.Synthesize.total.Netlist.gate_equivalents

(* ---- T1: Table 1 ---------------------------------------------------------- *)

let table1_rows () =
  let measure_design ~design ~build ~src_lines ~cycles_of =
    let ms =
      List.map
        (fun engine ->
          Metrics.measure ~ocaml_source_lines:src_lines build engine
            ~cycles:(cycles_of engine))
        Metrics.all_engines
    in
    (design, gates (build ()), ms)
  in
  let hcor_row =
    measure_design ~design:"HCOR" ~build:Gallery.hcor ~src_lines:(Hcor.source_lines ())
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
      ~cycles_of:(function
        | Metrics.Interpreted_objects -> 1000
        | Metrics.Compiled_code -> 20000
        | Metrics.Native_code -> 200000
        | Metrics.Rt_event_driven -> 300
        | Metrics.Gate_netlist -> 1000)
  in
  let rs_row =
    measure_design ~design:"RS" ~build:Gallery.rs ~src_lines:(Rs_codec.source_lines ())
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
      ~cycles_of:(function
        | Metrics.Interpreted_objects -> 4000
        | Metrics.Compiled_code -> 40000
        | Metrics.Native_code -> 400000
        | Metrics.Rt_event_driven -> 2000
        | Metrics.Gate_netlist -> 400)
  in
  [ hcor_row; dect_row; rs_row; cpu_row ]

let t1 () =
  print_endline
    "== T1: Table 1 -- performances of interpreted and compiled approaches ==";
  let rows = table1_rows () in
  List.iter
    (fun (design, gate_count, ms) ->
      Format.printf "%a@."
        (fun ppf -> Metrics.pp_table ppf ~design ~gates:gate_count)
        ms;
      print_newline ())
    rows

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
    fail "three-phase scheduler: DEADLOCK (unexpected!)");
  Cycle_system.reset sys;
  (match Cycle_system.run ~two_phase:true sys 1 with
  | () -> fail "two-phase scheduler: resolved (unexpected!)"
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
  let _, shared = Synthesize.synthesize sys in
  let t_shared = Unix.gettimeofday () -. t0 in
  let _, unshared =
    Synthesize.synthesize
      ~options:{ Synthesize.default_options with Synthesize.share_operators = false }
      sys
  in
  Printf.printf
    "DECT with sharing:    %6d gate-equivalents (%.2fs total synthesis)\n"
    shared.Synthesize.total.Netlist.gate_equivalents t_shared;
  Printf.printf "DECT without sharing: %6d gate-equivalents\n"
    unshared.Synthesize.total.Netlist.gate_equivalents;
  (* The post-synthesis cleanup the paper delegates to logic synthesis. *)
  let nl, _ = Synthesize.synthesize sys in
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
  let verify name sys ~cycles =
    let r = Synthesize.verify sys ~cycles in
    let mismatches = List.length r.Synthesize.mismatches in
    Printf.printf "%s netlist:  %5d vectors, %d mismatches\n" name
      r.Synthesize.vectors_checked mismatches;
    if mismatches > 0 then fail "C6: the %s netlist differs from its system" name
  in
  let hcor = Gallery.hcor () in
  verify "HCOR" hcor ~cycles:400;
  verify "DECT" (Gallery.dect ()) ~cycles:120;
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
  let _, rep = Synthesize.synthesize sys in
  Printf.printf "total: %d gate-equivalents (paper: 75 Kgates)\n"
    rep.Synthesize.total.Netlist.gate_equivalents;
  let nl, _ = Synthesize.synthesize sys in
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

let () =
  let targets =
    [ ("t1", t1); ("c3", c3); ("c4", c4); ("c5", c5); ("c6", c6); ("f5", f5);
      ("figs", figs); ("micro", micro) ]
  in
  let chosen =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst targets
  in
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some run -> run ()
      | None ->
        fail "unknown bench target %s (known: %s)" name
          (String.concat " " (List.map fst targets)))
    chosen;
  if !failed then exit 1
