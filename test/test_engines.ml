(* Equivalence tests across the simulation engines: interpreted
   three-phase scheduler, compiled closure program, event-driven RTL —
   plus the emitted standalone OCaml simulator. *)

let s8 = Fixed.signed ~width:8 ~frac:0
let clk = Clock.default

(* A two-component system with both combinational flow-through and
   registered state, plus a ROM. *)
let rich_system seed =
  let table =
    Signal.Rom.create (Printf.sprintf "rich_rom_%d" seed) s8
      (Array.init 16 (fun i -> Fixed.of_int s8 ((i * 7 mod 21) - 10)))
  in
  let acc = Signal.Reg.create clk (Printf.sprintf "rich_acc_%d" seed) s8 in
  let phase = Signal.Reg.create clk (Printf.sprintf "rich_ph_%d" seed) Fixed.bit_format in
  let front =
    Sfg.build "front_active" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        let idx =
          Signal.resize (Fixed.unsigned ~width:4 ~frac:0)
            Signal.(x &: consti s8 15)
        in
        let v = Signal.(rom table idx +: reg_q acc) in
        Sfg.Builder.output b "mid" (Signal.resize ~overflow:Fixed.Saturate s8 v);
        Sfg.Builder.assign_resized b acc Signal.(x -: reg_q acc);
        Sfg.Builder.assign b phase Signal.(~:(reg_q phase)))
  in
  let front_alt =
    Sfg.build "front_idle" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.output b "mid"
          (Signal.resize s8 Signal.(x +: consti s8 1));
        Sfg.Builder.assign b phase Signal.(~:(reg_q phase)))
  in
  let f1 = Fsm.create "front_ctl" in
  let a = Fsm.initial f1 "a" and b = Fsm.state f1 "b" in
  Fsm.(a |-- cnd (Signal.reg_q phase) |+ front_alt |-> b);
  Fsm.(a |-- always |+ front |-> a);
  Fsm.(b |-- always |+ front |-> a);
  let acc2 = Signal.Reg.create clk (Printf.sprintf "rich_acc2_%d" seed) s8 in
  let back =
    Sfg.build "back_step" (fun b ->
        let m = Sfg.Builder.input b "m" s8 in
        let v = Signal.(m *: consti s8 3) in
        Sfg.Builder.output b "y"
          (Signal.resize ~round:Fixed.Round_nearest ~overflow:Fixed.Saturate s8
             (Signal.shift_right v 1));
        Sfg.Builder.assign_resized b acc2 Signal.(m +: reg_q acc2);
        Sfg.Builder.output b "state" (Signal.resize s8 (Signal.reg_q acc2)))
  in
  let f2 = Fsm.create "back_ctl" in
  let s0 = Fsm.initial f2 "s0" in
  Fsm.(s0 |-- always |+ back |-> s0);
  let sys = Cycle_system.create (Printf.sprintf "rich_%d" seed) in
  let c1 = Cycle_system.add_timed sys "front" f1 in
  let c2 = Cycle_system.add_timed sys "back" f2 in
  let rng = Random.State.make [| seed |] in
  let stimuli = Array.init 64 (fun _ -> Fixed.of_int s8 (Random.State.int rng 200 - 100)) in
  let stim =
    Cycle_system.add_input sys "x_in" s8 (fun c -> Some stimuli.(c mod 64))
  in
  let p_y = Cycle_system.add_output sys "y_out" in
  let p_state = Cycle_system.add_output sys "state_out" in
  ignore (Cycle_system.connect sys (stim, "out") [ (c1, "x") ]);
  ignore (Cycle_system.connect sys (c1, "mid") [ (c2, "m") ]);
  ignore (Cycle_system.connect sys (c2, "y") [ (p_y, "in") ]);
  ignore (Cycle_system.connect sys (c2, "state") [ (p_state, "in") ]);
  sys

let histories_equal h1 h2 =
  List.length h1 = List.length h2
  && List.for_all2
       (fun (p1, l1) (p2, l2) ->
         p1 = p2
         && List.length l1 = List.length l2
         && List.for_all2
              (fun (c1, v1) (c2, v2) -> c1 = c2 && Fixed.equal v1 v2)
              l1 l2)
       h1 h2

let test_compiled_equivalence () =
  for seed = 1 to 5 do
    let sys = rich_system seed in
    let interp = Flow.simulate sys ~cycles:50 in
    let compiled = Flow.simulate ~engine:"compiled" sys ~cycles:50 in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d" seed)
      true
      (histories_equal interp compiled)
  done

let test_rtl_equivalence () =
  for seed = 6 to 9 do
    let sys = rich_system seed in
    let interp = Flow.simulate sys ~cycles:40 in
    let rtl = Flow.simulate ~engine:"rtl" sys ~cycles:40 in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d" seed)
      true (histories_equal interp rtl)
  done

let test_engines_agree_helper () =
  let sys = rich_system 42 in
  Alcotest.(check (list string)) "no disagreement" []
    (Flow.engines_agree sys ~cycles:40)

(* [f] drives one session of [engine] on [sys], made after a system
   reset so every engine starts from power-on. *)
let with_session engine sys f =
  Cycle_system.reset sys;
  let module E = (val Ocapi_engine.get engine) in
  let ses = E.make sys in
  Fun.protect ~finally:ses.Ocapi_engine.ses_close (fun () -> f ses)

let steps ses n =
  for _ = 1 to n do
    ses.Ocapi_engine.ses_step ()
  done

let test_compiled_reset () =
  with_session "compiled" (rich_system 77) (fun ses ->
      steps ses 30;
      let first = ses.Ocapi_engine.ses_histories () in
      ses.Ocapi_engine.ses_reset ();
      steps ses 30;
      Alcotest.(check bool) "reset reproduces" true
        (histories_equal first (ses.Ocapi_engine.ses_histories ()));
      Alcotest.(check bool) "has statements" true
        (Option.value ~default:0 ses.Ocapi_engine.ses_static_size > 10))

(* The compiled engine lowers at session set-up, so [make] is where a
   design it cannot schedule statically is refused. *)
let compiled_refuses sys what =
  match with_session "compiled" sys ignore with
  | exception e when Raises.code Unsupported e -> ()
  | () -> Alcotest.failf "%s accepted" what

let test_compiled_rejects_component_cycle () =
  (* Combinational component cycle at the static schedule's granularity. *)
  let mk name =
    let sfg =
      Sfg.build (name ^ "_f") (fun b ->
          let x = Sfg.Builder.input b "x" s8 in
          Sfg.Builder.output b "y" (Signal.resize s8 Signal.(x +: consti s8 1)))
    in
    let fsm = Fsm.create (name ^ "_c") in
    let s0 = Fsm.initial fsm "s0" in
    Fsm.(s0 |-- always |+ sfg |-> s0);
    fsm
  in
  let sys = Cycle_system.create "cycle_reject" in
  let a = Cycle_system.add_timed sys "ca" (mk "ca") in
  let b = Cycle_system.add_timed sys "cb" (mk "cb") in
  ignore (Cycle_system.connect sys (a, "y") [ (b, "x") ]);
  ignore (Cycle_system.connect sys (b, "y") [ (a, "x") ]);
  compiled_refuses sys "component cycle"

(* The RT kernel's activity reaches telemetry: events, process
   activations and delta cycles, counted per clock cycle. *)
let test_rtl_activity_counters () =
  let _, report =
    Ocapi_obs.run_with_telemetry ~label:"rtl" (fun () ->
        with_session "rtl" (rich_system 13) (fun ses -> steps ses 20))
  in
  let metric name = List.assoc_opt name report.Ocapi_obs.rp_metrics in
  let counter name =
    match metric name with Some (Ocapi_obs.Counter_v n) -> n | _ -> 0
  in
  Alcotest.(check int) "cycles counted" 20 (counter "rtl.cycles");
  Alcotest.(check bool) "events happened" true (counter "rtl.events_fired" > 20);
  Alcotest.(check bool) "activations happened" true (counter "rtl.activations" > 20);
  match metric "rtl.deltas_per_cycle" with
  | Some (Ocapi_obs.Histogram_v h) ->
    Alcotest.(check int) "one observation per cycle" 20 h.Ocapi_obs.hs_count;
    Alcotest.(check bool) "deltas happened" true (h.Ocapi_obs.hs_sum > 20.)
  | _ -> Alcotest.fail "no rtl.deltas_per_cycle histogram"

(* y = x + acc and acc <- x + 1, with a stimulus that holds its net
   (returns None) for cycles 0-2: after a reset the held input must read
   the power-on zero again, not the previous run's last token. *)
let held_input_system () =
  let acc = Signal.Reg.create clk "held_acc" s8 in
  let sfg =
    Sfg.build "held_step" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.output b "y" (Signal.resize s8 Signal.(x +: reg_q acc));
        Sfg.Builder.assign_resized b acc Signal.(x +: consti s8 1))
  in
  let fsm = Fsm.create "held_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let sys = Cycle_system.create "held_input" in
  let c = Cycle_system.add_timed sys "held" fsm in
  let stim =
    Cycle_system.add_input sys "x_in" s8 (fun cyc ->
        if cyc < 3 then None else Some (Fixed.of_int s8 cyc))
  in
  let p = Cycle_system.add_output sys "y_out" in
  ignore (Cycle_system.connect sys (stim, "out") [ (c, "x") ]);
  ignore (Cycle_system.connect sys (c, "y") [ (p, "in") ]);
  sys

(* The held input deadlocks the interpreted engine at cycle 0, and the
   engine sweep raises that diagnostic itself. *)
let test_engine_sweep_failure () =
  match Flow.engine_disagreements (held_input_system ()) ~cycles:8 with
  | _ -> Alcotest.fail "held-input sweep completed"
  | exception (Ocapi_error.Error d as e) when Raises.code Deadlock e ->
    Alcotest.(check bool) "waiting list" true (d.Ocapi_error.e_nets <> [])

(* The emitted standalone simulator compiles with ocamlfind/ocamlopt and
   prints exactly the probe stream of the in-process engines.  Skipped
   when no compiler is on PATH (the toolchain-less CI job runs the
   suite that way on purpose: only the dynlinking native engine has a
   fallback ladder — this test has nothing to degrade to). *)
let compiler_on_path () =
  Sys.command "command -v ocamlfind >/dev/null 2>&1 || command -v ocamlopt >/dev/null 2>&1"
  = 0

let emitted_simulator_matches ?(engine = "interp") sys ~cycles =
  let reference = Flow.simulate ~engine sys ~cycles in
  Cycle_system.reset sys;
  let src = Emit.emit_standalone sys ~cycles in
  let lines =
    Temp_dir.with_dir "ocapi_test" (fun dir ->
        let ml = Filename.concat dir "sim.ml" in
        let oc = open_out ml in
        output_string oc src;
        close_out oc;
        let exe = Filename.concat dir "sim.exe" in
        let rc =
          Sys.command
            (Printf.sprintf "ocamlfind ocamlopt -package unix %s -o %s >/dev/null 2>&1 || ocamlopt %s -o %s >/dev/null 2>&1"
               ml exe ml exe)
        in
        if rc <> 0 then Alcotest.fail "emitted simulator failed to compile";
        let ic = Unix.open_process_in exe in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        ignore (Unix.close_process_in ic);
        List.rev !lines)
  in
  (* Build the expected line set from the reference engine's histories. *)
  let expected =
    List.concat_map
      (fun (p, hist) ->
        List.map
          (fun (c, v) -> Printf.sprintf "%d %s %Ld" c p (Fixed.mantissa v))
          hist)
      reference
    |> List.sort compare
  in
  Alcotest.(check (list string))
    (Cycle_system.name sys ^ ": emitted output matches")
    expected (List.sort compare lines)

(* The accumulator CPU adds an inlined RAM to the emitted program.  The
   held-input design's stimulus skips cycles 0-2; the interpreted
   scheduler deadlocks on a missing token, so the compiled engine's
   histories are its reference. *)
let test_emitted_simulator_end_to_end () =
  if not (compiler_on_path ()) then Alcotest.skip ();
  emitted_simulator_matches (rich_system 21) ~cycles:25;
  emitted_simulator_matches
    (Acc_cpu.create ~io_stimulus:(Acc_cpu.io_stimulus ()) ()).Acc_cpu.system
    ~cycles:Acc_cpu.check_cycles;
  emitted_simulator_matches ~engine:"compiled" (held_input_system ()) ~cycles:8

(* --- sessions: reset, allocation, RAM kernels and guards ------------------ *)

let test_reset_matches_fresh () =
  let sys = held_input_system () in
  let ys h = List.map (fun (_, v) -> Fixed.to_int v) (List.assoc "y_out" h) in
  List.iter
    (fun engine ->
      with_session engine sys (fun ses ->
          steps ses 8;
          let fresh = ses.Ocapi_engine.ses_histories () in
          ses.Ocapi_engine.ses_reset ();
          steps ses 8;
          let again = ses.Ocapi_engine.ses_histories () in
          Alcotest.(check (list int))
            (engine ^ " fresh") [ 0; 1; 1; 4; 8; 10; 12; 14 ] (ys fresh);
          Alcotest.(check bool)
            (engine ^ " reset = fresh") true (histories_equal fresh again)))
    [ "compiled"; "native"; "rtl"; "gate" ]

(* Minor words one compiled step allocates on a chain of [links]
   add/resize/mux links.  The stimulus hands out preallocated tokens, so
   what remains is per-step overhead independent of the chain. *)
let chain_words_per_step links =
  let tokens =
    Array.init 1000 (fun c -> Some (Fixed.of_int s8 ((c * 37 mod 200) - 100)))
  in
  let sfg =
    Sfg.build (Printf.sprintf "chain%d_step" links) (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        let sel = Signal.(x <: consti s8 0) in
        let rec link i e =
          if i = links then e
          else
            link (i + 1)
              (Signal.mux2 sel (Signal.resize s8 Signal.(e +: consti s8 i)) e)
        in
        Sfg.Builder.output b "y" (link 0 x))
  in
  let fsm = Fsm.create (Printf.sprintf "chain%d_ctl" links) in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let sys = Cycle_system.create (Printf.sprintf "chain%d" links) in
  let c = Cycle_system.add_timed sys "chain" fsm in
  let stim = Cycle_system.add_input sys "x_in" s8 (fun cyc -> tokens.(cyc mod 1000)) in
  let p = Cycle_system.add_output sys "y_out" in
  ignore (Cycle_system.connect sys (stim, "out") [ (c, "x") ]);
  ignore (Cycle_system.connect sys (c, "y") [ (p, "in") ]);
  with_session "compiled" sys (fun ses ->
      steps ses 10;
      let before = Gc.minor_words () in
      steps ses 1000;
      (Gc.minor_words () -. before) /. 1000.)

(* Executing statements allocates nothing: eight times the statements,
   the same allocation per step.  Bytecode boxes every int64, so the
   guard only holds for native code. *)
let test_statement_sweep_allocates_nothing () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let w8 = chain_words_per_step 8 and w64 = chain_words_per_step 64 in
  if Float.abs (w64 -. w8) >= 1.0 then
    Alcotest.failf "minor words per step: %.1f with 8 links, %.1f with 64" w8 w64

(* With warm stimulus columns, a native step allocates nothing on rs
   and cpu: the stimuli go from the columns into the plugin's unboxed
   words.  Measured after one reset, so the probe arrays already have
   their capacity. *)
let test_native_step_allocates_nothing () =
  if Sys.backend_type <> Sys.Native || Ocapi_native.availability () <> Ok ()
  then Alcotest.skip ();
  let gauge_words =
    let before = Gc.minor_words () in
    Gc.minor_words () -. before
  in
  List.iter
    (fun (name, sys) ->
      with_session "native" sys (fun ses ->
          steps ses 1000;
          ses.Ocapi_engine.ses_reset ();
          let before = Gc.minor_words () in
          steps ses 1000;
          let words = Gc.minor_words () -. before -. gauge_words in
          Alcotest.(check (float 0.0)) (name ^ ": minor words in 1000 steps")
            0.0 words))
    [ ("rs", Gallery.rs ()); ("cpu", Gallery.cpu ()) ]

(* Nor does a compiled step, probes recorded: their tokens are copied
   from the value store into the trace.  Measured after one reset, so
   the trace already has its capacity. *)
let test_compiled_step_allocates_nothing () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let gauge_words =
    let before = Gc.minor_words () in
    Gc.minor_words () -. before
  in
  List.iter
    (fun (name, sys) ->
      with_session "compiled" sys (fun ses ->
          steps ses 1000;
          ses.Ocapi_engine.ses_reset ();
          let before = Gc.minor_words () in
          steps ses 1000;
          let words = Gc.minor_words () -. before -. gauge_words in
          Alcotest.(check (float 0.0)) (name ^ ": minor words in 1000 steps")
            0.0 words;
          let trace = ses.Ocapi_engine.ses_trace () in
          Alcotest.(check int) (name ^ ": tokens on the first probe") 1000
            (Cycle_system.Trace.length trace 0)))
    [ ("rs", Gallery.rs ()); ("cpu", Gallery.cpu ()) ]

(* Interp and rtl steps evaluate kept plans: no expression walk and no
   hash table per firing.  Measured over 300 steps after 300 from
   reset.  The interp hcor and rs bounds sit below what those steps
   allocated when every firing re-walked its DAG (5,655 and 2,498 minor
   words per cycle).  The interp dect and cpu bounds sit below what
   they allocated while the scheduler rebuilt its bookkeeping every
   cycle, an environment and a produced set per marked SFG and a fired
   set (9,579 and 1,784); on the run table they allocate about 3,300
   and 1,090.  The rtl bounds sit below what its steps allocated while
   every delta built a hash table of the processes it woke, every comb
   firing an environment, and every process a list of transactions
   joined with [@] (hcor 2,774, dect 9,250, rs 2,944, cpu 1,616); on
   the resolved kernel they allocate about 1,940, 2,670, 1,530 and
   980. *)
let test_interpreted_step_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  List.iter
    (fun (engine, design, build, bound) ->
      with_session engine (build ()) (fun ses ->
          steps ses 300;
          let before = Gc.minor_words () in
          steps ses 300;
          let per_cycle = (Gc.minor_words () -. before) /. 300. in
          if per_cycle >= bound then
            Alcotest.failf "%s on %s: %.0f minor words per cycle, bound %.0f"
              engine design per_cycle bound))
    [
      ("interp", "hcor", Gallery.hcor, 4000.);
      ("interp", "rs", Gallery.rs, 2000.);
      ("interp", "dect", Gallery.dect, 5000.);
      ("interp", "cpu", Gallery.cpu, 1400.);
      ("rtl", "hcor", Gallery.hcor, 2400.);
      ("rtl", "dect", Gallery.dect, 4000.);
      ("rtl", "rs", Gallery.rs, 2000.);
      ("rtl", "cpu", Gallery.cpu, 1300.);
    ]

(* The counters [names] of a fresh [engine] session stepped 1000
   cycles; a histogram reads as its sum. *)
let activity_at_1000 engine design build names =
  let (), report =
    Ocapi_obs.run_with_telemetry ~label:engine (fun () ->
        with_session engine (build ()) (fun ses -> steps ses 1000))
  in
  List.map
    (fun name ->
      match List.assoc_opt name report.Ocapi_obs.rp_metrics with
      | Some (Ocapi_obs.Counter_v n) -> n
      | Some (Ocapi_obs.Histogram_v h) -> int_of_float h.Ocapi_obs.hs_sum
      | Some (Ocapi_obs.Gauge_v _) | None -> Alcotest.failf "%s: no %s" design name)
    names

(* A fresh rtl session's activity over 1000 cycles of each gallery
   design: transactions, events, process activations (a component's
   latch at the rising edge included) and delta cycles.  Which woken
   process of a delta runs first is free, and none of these counts
   depends on it.  No gallery design has a combinational cycle, so the
   kernel queues only transactions that change their signal: every
   scheduled transaction is an event. *)
let test_rtl_activity_pinned () =
  List.iter
    (fun (design, build, fired, activations, deltas) ->
      let counts =
        activity_at_1000 "rtl" design build
          [ "rtl.events_fired"; "rtl.events_scheduled"; "rtl.activations";
            "rtl.deltas_per_cycle" ]
      in
      Alcotest.(check (list int)) design [ fired; fired; activations; deltas ] counts)
    [
      ("hcor", Gallery.hcor, 15_070, 1_438, 874);
      ("dect", Gallery.dect, 24_029, 56_751, 3_998);
      ("rs", Gallery.rs, 26_573, 4_934, 2_934);
      ("cpu", Gallery.cpu, 1_300, 3_066, 1_081);
    ]

(* Every engine's histories are its trace's, on the four gallery
   designs; a checkpoint's restore clears the trace, which then records
   the fault-free tokens from the checkpoint's cycle on. *)
let test_histories_are_the_trace () =
  List.iter
    (fun (design, build) ->
      List.iter
        (fun engine ->
          with_session engine (build ()) (fun ses ->
              let label = Printf.sprintf "%s on %s" design engine in
              let trace () =
                Cycle_system.Trace.to_histories (ses.Ocapi_engine.ses_trace ())
              in
              steps ses 10;
              let ck = Option.get (ses.Ocapi_engine.ses_checkpoint ()) in
              steps ses 30;
              let whole = ses.Ocapi_engine.ses_histories () in
              Alcotest.(check bool) (label ^ ": histories = trace") true
                (whole = trace ());
              ck.Ocapi_engine.ck_restore ();
              Alcotest.(check bool)
                (label ^ ": restore clears the trace") true
                (List.for_all (fun (_, h) -> h = []) (trace ()));
              Alcotest.(check bool) (label ^ ": restored state matches") true
                (ck.Ocapi_engine.ck_matches ());
              steps ses 30;
              let from_ck =
                List.map (fun (p, h) -> (p, List.filter (fun (c, _) -> c >= 10) h)) whole
              in
              Alcotest.(check bool) (label ^ ": tokens from the checkpoint on") true
                (from_ck = trace ())))
        [ "interp"; "compiled"; "native"; "rtl"; "gate" ])
    Gallery.designs

(* A controller driving a RAM cell, which carries a model and so fires
   inline on the compiled engine, whose read word returns through an
   SFG-built kernel without a model (the closure path). *)
let ram_loop_system () =
  let u3 = Fixed.unsigned ~width:3 ~frac:0 in
  let ptr = Signal.Reg.create clk "ramloop_ptr" u3 in
  let acc = Signal.Reg.create clk "ramloop_acc" s8 in
  let ctl =
    Sfg.build "ramloop_step" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        let m = Sfg.Builder.input b "m" s8 in
        (* The RAM commands read registers only, so the interpreted
           scheduler produces them before the RAM fires. *)
        Sfg.Builder.output b "addr" (Signal.reg_q ptr);
        Sfg.Builder.output b "wdata" (Signal.reg_q acc);
        Sfg.Builder.output b "we" Signal.(reg_q acc <: consti s8 0);
        Sfg.Builder.output b "y"
          (Signal.resize ~overflow:Fixed.Saturate s8 Signal.(m +: x));
        Sfg.Builder.assign_resized b ptr Signal.(reg_q ptr +: consti u3 3);
        Sfg.Builder.assign_resized b acc Signal.(x -: m))
  in
  let fsm = Fsm.create "ramloop_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ ctl |-> s0);
  let scale =
    Sfg_kernel.kernel_of_sfg
      (Sfg.build "ramloop_scale" (fun b ->
           let r = Sfg.Builder.input b "r" s8 in
           Sfg.Builder.output b "m"
             (Signal.resize ~overflow:Fixed.Saturate s8
                Signal.((r *: consti s8 3) +: consti s8 1))))
  in
  let rng = Random.State.make [| 0x5a17 |] in
  let xs = Array.init 64 (fun _ -> Fixed.of_int s8 (Random.State.int rng 200 - 100)) in
  let sys = Cycle_system.create "ramloop" in
  let c = Cycle_system.add_timed sys "ctl" fsm in
  let ram =
    Cycle_system.add_untimed sys
      (Ram_cell.kernel ~name:"ramloop_ram" ~words:8 ~data_fmt:s8 ~addr_fmt:u3)
  in
  let k = Cycle_system.add_untimed sys scale in
  let stim = Cycle_system.add_input sys "x_in" s8 (fun cyc -> Some xs.(cyc mod 64)) in
  let p_y = Cycle_system.add_output sys "y_out" in
  let p_r = Cycle_system.add_output sys "rdata_out" in
  List.iter
    (fun port -> ignore (Cycle_system.connect sys (c, port) [ (ram, port) ]))
    [ "addr"; "wdata"; "we" ];
  ignore (Cycle_system.connect sys (ram, "rdata") [ (k, "r"); (p_r, "in") ]);
  ignore (Cycle_system.connect sys (k, "m") [ (c, "m") ]);
  ignore (Cycle_system.connect sys (stim, "out") [ (c, "x") ]);
  ignore (Cycle_system.connect sys (c, "y") [ (p_y, "in") ]);
  sys

let test_ram_and_closure_kernels () =
  let sys = ram_loop_system () in
  let run engine drive =
    with_session engine sys (fun ses ->
        drive ses;
        ses.Ocapi_engine.ses_histories ())
  in
  let poke ses =
    let acc =
      List.find
        (fun i -> fst (ses.Ocapi_engine.ses_register_info i) = "ramloop_acc")
        (List.init ses.Ocapi_engine.ses_register_count Fun.id)
    in
    steps ses 100;
    ses.Ocapi_engine.ses_poke_register_bit acc ~bit:6;
    steps ses 100
  in
  let fresh = run "interp" (fun ses -> steps ses 200) in
  let poked = run "interp" poke in
  Alcotest.(check bool) "the poke changes the run" false (histories_equal fresh poked);
  List.iter
    (fun engine ->
      let check case expected drive =
        Alcotest.(check bool)
          (Printf.sprintf "%s %s" engine case)
          true
          (histories_equal expected (run engine drive))
      in
      check "fresh" fresh (fun ses -> steps ses 200);
      check "after reset" fresh (fun ses ->
          steps ses 137;
          ses.Ocapi_engine.ses_reset ();
          steps ses 200);
      check "after a register poke" poked poke)
    [ "compiled"; "rtl" ]

(* A controller and a RAM of [words] words behind a 3-bit address: with
   fewer than 8 words the addresses wrap, so the word count shows in the
   data read back, yet it is no part of the design's digest.  [name]
   keeps a test's design apart from every other test's in the per-process
   elaboration tables. *)
let ram_words_system ?(name = "ramwords") ~words () =
  let u3 = Fixed.unsigned ~width:3 ~frac:0 in
  let ptr = Signal.Reg.create clk (name ^ "_ptr") u3 in
  let acc = Signal.Reg.create clk (name ^ "_acc") s8 in
  let step =
    Sfg.build (name ^ "_step") (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        let r = Sfg.Builder.input b "r" s8 in
        Sfg.Builder.output b "addr" (Signal.reg_q ptr);
        Sfg.Builder.output b "wdata" (Signal.reg_q acc);
        Sfg.Builder.output b "we" Signal.(reg_q acc <: consti s8 20);
        Sfg.Builder.output b "y"
          (Signal.resize ~overflow:Fixed.Saturate s8 Signal.(r +: x));
        Sfg.Builder.assign_resized b ptr Signal.(reg_q ptr +: consti u3 3);
        Sfg.Builder.assign_resized b acc Signal.(x -: reg_q acc))
  in
  let fsm = Fsm.create (name ^ "_ctl") in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ step |-> s0);
  let sys = Cycle_system.create name in
  let c = Cycle_system.add_timed sys "ctl" fsm in
  let ram =
    Cycle_system.add_untimed sys
      (Ram_cell.kernel ~name:(name ^ "_ram") ~words ~data_fmt:s8 ~addr_fmt:u3)
  in
  let stim =
    Cycle_system.add_input sys "x_in" s8 (fun cyc ->
        Some (Fixed.of_int s8 ((cyc * 37 mod 101) - 50)))
  in
  let p_y = Cycle_system.add_output sys "y_out" in
  let p_r = Cycle_system.add_output sys "rdata_out" in
  List.iter
    (fun port -> ignore (Cycle_system.connect sys (c, port) [ (ram, port) ]))
    [ "addr"; "wdata"; "we" ];
  ignore (Cycle_system.connect sys (ram, "rdata") [ (c, "r"); (p_r, "in") ]);
  ignore (Cycle_system.connect sys (stim, "out") [ (c, "x") ]);
  ignore (Cycle_system.connect sys (c, "y") [ (p_y, "in") ]);
  sys

(* A RAM's word count is not in the digest but in the elaboration key:
   engines that cache an elaboration (native plugins on disk, gate
   netlists in memory) must not serve one word count's artifact to the
   other. *)
let test_ram_words_in_elaboration_key () =
  let build words = ram_words_system ~words () in
  Alcotest.(check string) "one digest"
    (Cycle_system.digest (build 8))
    (Cycle_system.digest (build 5));
  Alcotest.(check bool) "two elaboration keys" false
    (Cycle_system.elaboration_key (build 8) = Cycle_system.elaboration_key (build 5));
  let run engine words =
    with_session engine (build words) (fun ses ->
        steps ses 64;
        ses.Ocapi_engine.ses_histories ())
  in
  let h8 = run "interp" 8 and h5 = run "interp" 5 in
  Alcotest.(check bool) "the word count changes the run" false (histories_equal h8 h5);
  List.iter
    (fun engine ->
      List.iter
        (fun (words, expected) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s, %d words = interp" engine words)
            true
            (histories_equal expected (run engine words)))
        [ (8, h8); (5, h5); (8, h8) ])
    [ "native"; "gate"; "compiled"; "rtl" ]

(* Guards compile like SFG expressions, even when their nodes appear in
   no SFG: a counter's comparisons pick among three transitions, and
   each transition's SFG outputs its own mark. *)
let test_guards_select_transitions () =
  let u4 = Fixed.unsigned ~width:4 ~frac:0 and u3 = Fixed.unsigned ~width:3 ~frac:0 in
  let cnt = Signal.Reg.create clk "guarded_cnt" u4 in
  let mark name v =
    Sfg.build name (fun b ->
        Sfg.Builder.output b "y" (Signal.consti s8 v);
        Sfg.Builder.assign_resized b cnt Signal.(reg_q cnt +: consti u4 1))
  in
  let fsm = Fsm.create "guarded_ctl" in
  let a = Fsm.initial fsm "a" and b = Fsm.state fsm "b" in
  Fsm.(a |-- cnd Signal.(reg_q cnt ==: consti u4 5) |+ mark "guarded_hit" 100 |-> b);
  Fsm.(
    a
    |-- cnd Signal.(resize u3 (reg_q cnt) <: consti u3 2)
    |+ mark "guarded_low" 1 |-> a);
  Fsm.(a |-- always |+ mark "guarded_idle" 0 |-> a);
  Fsm.(b |-- always |+ mark "guarded_back" (-1) |-> a);
  let sys = Cycle_system.create "guarded" in
  let c = Cycle_system.add_timed sys "guarded" fsm in
  let p = Cycle_system.add_output sys "y_out" in
  ignore (Cycle_system.connect sys (c, "y") [ (p, "in") ]);
  let interp = Flow.simulate sys ~cycles:40 in
  let compiled = Flow.simulate ~engine:"compiled" sys ~cycles:40 in
  Alcotest.(check bool) "compiled = interp" true (histories_equal interp compiled);
  let marks = List.map (fun (_, v) -> Fixed.to_int v) (List.assoc "y_out" compiled) in
  List.iter
    (fun m ->
      Alcotest.(check bool) (Printf.sprintf "mark %d fired" m) true (List.mem m marks))
    [ 100; 1; 0; -1 ]

(* [Fsm.cnd] refuses a guard that reads an input at construction; one
   forged past it ([When e] is represented like [Some e]) must still be
   refused by the compiler. *)
let test_input_guard_rejected () =
  let forged_guard (e : Signal.t) : Fsm.guard = Obj.magic (Some e) in
  let xi = Signal.Input.create "x" s8 in
  let sfg =
    Sfg.build "forged_step" (fun b ->
        Sfg.Builder.output b "y" (Sfg.Builder.input_port b xi))
  in
  let fsm = Fsm.create "forged_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.add_transition fsm ~from:s0
    ~guard:(forged_guard Signal.(input xi ==: consti s8 0))
    ~actions:[ sfg ] ~goto:s0;
  let sys = Cycle_system.create "forged" in
  let c = Cycle_system.add_timed sys "forged" fsm in
  let stim = Cycle_system.add_input sys "x_in" s8 (fun _ -> Some (Fixed.zero s8)) in
  let p = Cycle_system.add_output sys "y_out" in
  ignore (Cycle_system.connect sys (stim, "out") [ (c, "x") ]);
  ignore (Cycle_system.connect sys (c, "y") [ (p, "in") ]);
  compiled_refuses sys "input-reading guard"

(* Table 1's static-size column: statements per gallery design, the
   elided ones (constants, register reads, shifts) included.  The native
   engine reports the same count whether it runs its plugin or, with
   the engine disabled, its interpreted fallback. *)
let test_statement_counts () =
  let size engine sys = with_session engine sys (fun ses -> ses.Ocapi_engine.ses_static_size) in
  let native_disabled f =
    let prior =
      Option.value ~default:"" (Sys.getenv_opt "OCAPI_NATIVE_DISABLE")
    in
    Unix.putenv "OCAPI_NATIVE_DISABLE" "1";
    Fun.protect ~finally:(fun () -> Unix.putenv "OCAPI_NATIVE_DISABLE" prior) f
  in
  List.iter
    (fun (name, sys, expected) ->
      Alcotest.(check (option int)) name (Some expected) (size "compiled" sys);
      Alcotest.(check (option int)) (name ^ " native") (Some expected)
        (size "native" sys);
      Alcotest.(check (option int)) (name ^ " native fallback") (Some expected)
        (native_disabled (fun () -> size "native" sys)))
    [
      ("hcor", Gallery.hcor (), 708);
      ("dect", Gallery.dect (), 2392);
      ( "rs",
        (Rs_codec.create ~data_stimulus:(Rs_codec.data_stimulus ())
           ~err_stimulus:(Rs_codec.err_stimulus ()) ())
          .Rs_codec.system,
        173 );
      ( "cpu",
        (Acc_cpu.create ~io_stimulus:(Acc_cpu.io_stimulus ()) ()).Acc_cpu.system,
        89 );
    ]

let suite =
  [
    Alcotest.test_case "compiled == interpreted (5 seeds)" `Quick
      test_compiled_equivalence;
    Alcotest.test_case "rtl == interpreted (4 seeds)" `Quick test_rtl_equivalence;
    Alcotest.test_case "engines_agree helper" `Quick test_engines_agree_helper;
    Alcotest.test_case "compiled reset reproduces" `Quick test_compiled_reset;
    Alcotest.test_case "compiled rejects component cycles" `Quick
      test_compiled_rejects_component_cycle;
    Alcotest.test_case "rtl activity reaches telemetry" `Quick
      test_rtl_activity_counters;
    Alcotest.test_case "engine sweep raises a deadlock" `Quick
      test_engine_sweep_failure;
    Alcotest.test_case "reset = fresh session (held input)" `Quick
      test_reset_matches_fresh;
    Alcotest.test_case "compiled statement sweep allocates nothing" `Quick
      test_statement_sweep_allocates_nothing;
    Alcotest.test_case "native step allocates nothing (warm columns)" `Quick
      test_native_step_allocates_nothing;
    Alcotest.test_case "compiled step allocates nothing (probes recorded)" `Quick
      test_compiled_step_allocates_nothing;
    Alcotest.test_case "interp and rtl steps stay under allocation bounds" `Quick
      test_interpreted_step_allocation;
    Alcotest.test_case "rtl activity pinned at 1000 cycles" `Quick
      test_rtl_activity_pinned;
    Alcotest.test_case "histories = trace; restore clears it" `Quick
      test_histories_are_the_trace;
    Alcotest.test_case "compiled RAM and closure kernels" `Quick
      test_ram_and_closure_kernels;
    Alcotest.test_case "RAM word count in the elaboration key" `Quick
      test_ram_words_in_elaboration_key;
    Alcotest.test_case "compiled guards select transitions" `Quick
      test_guards_select_transitions;
    Alcotest.test_case "compiled rejects input-reading guards" `Quick
      test_input_guard_rejected;
    Alcotest.test_case "compiled statement counts" `Quick test_statement_counts;
    Alcotest.test_case "emitted simulator end-to-end" `Slow
      test_emitted_simulator_end_to_end;
  ]

(* Property: randomized expression DAGs (mux/logic/resize-heavy, with
   shared subexpressions) behave identically under the interpreted and
   compiled engines.  This guards the block-A/B classification logic:
   a short-circuit bug there once put input-dependent nodes in the
   token-production block, reading stale values. *)
let random_system_property =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 1_000_000 in
      return seed)
  in
  let arb = QCheck.make ~print:string_of_int gen in
  QCheck.Test.make ~name:"random DAG: compiled == interpreted" ~count:60 arb
    (fun seed ->
      let rng = Random.State.make [| seed; 0xabcd |] in
      let fresh = Printf.sprintf "rnd%d_%d" seed in
      let inputs =
        Array.init 2 (fun i ->
            Signal.Input.create
              (Printf.sprintf "in%d" i)
              (Fixed.signed ~width:6 ~frac:2))
      in
      let regs =
        Array.init 2 (fun i ->
            Signal.Reg.create clk (fresh i) (Fixed.signed ~width:6 ~frac:2))
      in
      let expr =
        QCheck.Gen.generate1
          ~rand:(Random.State.make [| seed |])
          (Gen.expr_gen ~inputs ~regs 4)
      in
      let out_fmt = Fixed.signed ~width:10 ~frac:3 in
      let sfg =
        Sfg.build (fresh 77) (fun b ->
            Array.iter (fun i -> ignore (Sfg.Builder.input_port b i)) inputs;
            Sfg.Builder.output b "y"
              (Signal.resize ~overflow:Fixed.Saturate out_fmt expr);
            Array.iter
              (fun r ->
                Sfg.Builder.assign_resized b r
                  (Signal.resize ~overflow:Fixed.Saturate
                     (Signal.Reg.fmt r) expr))
              regs)
      in
      let fsm = Fsm.create (fresh 88) in
      let s0 = Fsm.initial fsm "s0" in
      Fsm.(s0 |-- always |+ sfg |-> s0);
      let sys = Cycle_system.create (fresh 99) in
      let c = Cycle_system.add_timed sys "c" fsm in
      let in_fmt = Fixed.signed ~width:6 ~frac:2 in
      let stim i =
        Cycle_system.add_input sys
          (Printf.sprintf "stim%d" i)
          in_fmt
          (fun cyc ->
            let r = Random.State.make [| seed; i; cyc |] in
            ignore rng;
            Some (Fixed.create in_fmt (Int64.of_int (Random.State.int r 63 - 31))))
      in
      let s0i = stim 0 and s1i = stim 1 in
      let probe = Cycle_system.add_output sys "y_out" in
      ignore (Cycle_system.connect sys (s0i, "out") [ (c, "in0") ]);
      ignore (Cycle_system.connect sys (s1i, "out") [ (c, "in1") ]);
      ignore (Cycle_system.connect sys (c, "y") [ (probe, "in") ]);
      let interp = Flow.simulate sys ~cycles:20 in
      let compiled = Flow.simulate ~engine:"compiled" sys ~cycles:20 in
      histories_equal interp compiled)

(* The same property against the event-driven RT engine. *)
let random_system_rtl_property =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000) in
  QCheck.Test.make ~name:"random DAG: rtl == interpreted" ~count:25 arb
    (fun seed ->
      let fresh = Printf.sprintf "rtl%d_%d" seed in
      let in_fmt = Fixed.signed ~width:6 ~frac:2 in
      let inputs =
        Array.init 2 (fun i -> Signal.Input.create (Printf.sprintf "in%d" i) in_fmt)
      in
      let regs = Array.init 2 (fun i -> Signal.Reg.create clk (fresh i) in_fmt) in
      let expr =
        QCheck.Gen.generate1
          ~rand:(Random.State.make [| seed; 17 |])
          (Gen.expr_gen ~inputs ~regs 3)
      in
      let out_fmt = Fixed.signed ~width:10 ~frac:3 in
      let sfg =
        Sfg.build (fresh 77) (fun b ->
            Array.iter (fun i -> ignore (Sfg.Builder.input_port b i)) inputs;
            Sfg.Builder.output b "y"
              (Signal.resize ~overflow:Fixed.Saturate out_fmt expr);
            Array.iter
              (fun r ->
                Sfg.Builder.assign_resized b r
                  (Signal.resize ~overflow:Fixed.Saturate (Signal.Reg.fmt r) expr))
              regs)
      in
      let fsm = Fsm.create (fresh 88) in
      let s0 = Fsm.initial fsm "s0" in
      Fsm.(s0 |-- always |+ sfg |-> s0);
      let sys = Cycle_system.create (fresh 99) in
      let c = Cycle_system.add_timed sys "c" fsm in
      let stim i =
        Cycle_system.add_input sys (Printf.sprintf "stim%d" i) in_fmt
          (fun cyc ->
            let r = Random.State.make [| seed; i; cyc |] in
            Some (Fixed.create in_fmt (Int64.of_int (Random.State.int r 63 - 31))))
      in
      let s0i = stim 0 and s1i = stim 1 in
      let probe = Cycle_system.add_output sys "y_out" in
      ignore (Cycle_system.connect sys (s0i, "out") [ (c, "in0") ]);
      ignore (Cycle_system.connect sys (s1i, "out") [ (c, "in1") ]);
      ignore (Cycle_system.connect sys (c, "y") [ (probe, "in") ]);
      let interp = Flow.simulate sys ~cycles:12 in
      let rtl = Flow.simulate ~engine:"rtl" sys ~cycles:12 in
      histories_equal interp rtl)

(* The same property through synthesis: the gate engine simulates the
   synthesized netlist of the random system, so this is a differential
   sweep of the whole lowering chain — wordgen arithmetic, controller
   encoding and the probe-valid wires — against the interpreter. *)
let random_system_gate_property =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000) in
  QCheck.Test.make ~name:"random DAG: gate == interpreted" ~count:20 arb
    (fun seed ->
      let fresh = Printf.sprintf "gate%d_%d" seed in
      let in_fmt = Fixed.signed ~width:6 ~frac:2 in
      let inputs =
        Array.init 2 (fun i -> Signal.Input.create (Printf.sprintf "in%d" i) in_fmt)
      in
      let regs = Array.init 2 (fun i -> Signal.Reg.create clk (fresh i) in_fmt) in
      let expr =
        QCheck.Gen.generate1
          ~rand:(Random.State.make [| seed; 23 |])
          (Gen.expr_gen ~inputs ~regs 3)
      in
      let out_fmt = Fixed.signed ~width:10 ~frac:3 in
      let sfg =
        Sfg.build (fresh 77) (fun b ->
            Array.iter (fun i -> ignore (Sfg.Builder.input_port b i)) inputs;
            Sfg.Builder.output b "y"
              (Signal.resize ~overflow:Fixed.Saturate out_fmt expr);
            Array.iter
              (fun r ->
                Sfg.Builder.assign_resized b r
                  (Signal.resize ~overflow:Fixed.Saturate (Signal.Reg.fmt r) expr))
              regs)
      in
      let fsm = Fsm.create (fresh 88) in
      let s0 = Fsm.initial fsm "s0" in
      Fsm.(s0 |-- always |+ sfg |-> s0);
      let sys = Cycle_system.create (fresh 99) in
      let c = Cycle_system.add_timed sys "c" fsm in
      let stim i =
        Cycle_system.add_input sys (Printf.sprintf "stim%d" i) in_fmt
          (fun cyc ->
            let r = Random.State.make [| seed; i; cyc |] in
            Some (Fixed.create in_fmt (Int64.of_int (Random.State.int r 63 - 31))))
      in
      let s0i = stim 0 and s1i = stim 1 in
      let probe = Cycle_system.add_output sys "y_out" in
      ignore (Cycle_system.connect sys (s0i, "out") [ (c, "in0") ]);
      ignore (Cycle_system.connect sys (s1i, "out") [ (c, "in1") ]);
      ignore (Cycle_system.connect sys (c, "y") [ (probe, "in") ]);
      let interp = Flow.simulate sys ~cycles:12 in
      let gate = Flow.simulate ~engine:"gate" sys ~cycles:12 in
      histories_equal interp gate)

(* Chains of two components with a combinational cross-component path:
   the front's input-dependent output feeds the back's logic within the
   same cycle, exercising the inter-component part of the static
   compiled schedule. *)
let random_chain_property =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000) in
  QCheck.Test.make ~name:"random 2-component chain: compiled == interpreted"
    ~count:40 arb (fun seed ->
      let fresh = Printf.sprintf "chain%d_%d" seed in
      let in_fmt = Fixed.signed ~width:6 ~frac:2 in
      let mid_fmt = Fixed.signed ~width:9 ~frac:3 in
      let make_comp tag n_inputs out_fmt depth_seed =
        let inputs =
          Array.init n_inputs (fun i ->
              Signal.Input.create (Printf.sprintf "i%d" i)
                (if tag = "front" then in_fmt else mid_fmt))
        in
        let regs =
          Array.init 2 (fun i ->
              Signal.Reg.create clk (fresh (depth_seed + i)) in_fmt)
        in
        let expr =
          QCheck.Gen.generate1
            ~rand:(Random.State.make [| seed; depth_seed |])
            (Gen.expr_gen ~inputs ~regs 3)
        in
        let sfg =
          Sfg.build (fresh (depth_seed + 50)) (fun b ->
              Array.iter (fun i -> ignore (Sfg.Builder.input_port b i)) inputs;
              Sfg.Builder.output b "o"
                (Signal.resize ~overflow:Fixed.Saturate out_fmt expr);
              Array.iter
                (fun r ->
                  Sfg.Builder.assign_resized b r
                    (Signal.resize ~overflow:Fixed.Saturate (Signal.Reg.fmt r)
                       expr))
                regs)
        in
        let fsm = Fsm.create (fresh (depth_seed + 60)) in
        let s0 = Fsm.initial fsm "s0" in
        Fsm.(s0 |-- always |+ sfg |-> s0);
        fsm
      in
      let front = make_comp "front" 2 mid_fmt 100 in
      let back = make_comp "back" 1 (Fixed.signed ~width:10 ~frac:2) 200 in
      let sys = Cycle_system.create (fresh 999) in
      let c1 = Cycle_system.add_timed sys "front" front in
      let c2 = Cycle_system.add_timed sys "back" back in
      let stim i =
        Cycle_system.add_input sys (Printf.sprintf "stim%d" i) in_fmt
          (fun cyc ->
            let r = Random.State.make [| seed; i; cyc |] in
            Some (Fixed.create in_fmt (Int64.of_int (Random.State.int r 63 - 31))))
      in
      let s0i = stim 0 and s1i = stim 1 in
      let probe = Cycle_system.add_output sys "y_out" in
      ignore (Cycle_system.connect sys (s0i, "out") [ (c1, "i0") ]);
      ignore (Cycle_system.connect sys (s1i, "out") [ (c1, "i1") ]);
      ignore (Cycle_system.connect sys (c1, "o") [ (c2, "i0") ]);
      ignore (Cycle_system.connect sys (c2, "o") [ (probe, "in") ]);
      let interp = Flow.simulate sys ~cycles:16 in
      let compiled = Flow.simulate ~engine:"compiled" sys ~cycles:16 in
      histories_equal interp compiled)

(* A fresh gate session's activity over 1000 cycles of each gallery
   design: one settle per step, which evaluates the readers of the
   last edge together with those of the inputs. *)
let test_gate_activity_pinned () =
  List.iter
    (fun (design, build, clocks, settles, evaluations, events) ->
      Alcotest.(check (list int)) design [ clocks; settles; evaluations; events ]
        (activity_at_1000 "gate" design build
           [ "gates.clocks"; "gates.settles"; "gates.evaluations"; "gates.events" ]))
    [
      ("hcor", Gallery.hcor, 1000, 1000, 900_286, 569_762);
      ("dect", Gallery.dect, 1000, 1000, 3_198_027, 1_911_643);
      ("rs", Gallery.rs, 1000, 1000, 270_028, 200_689);
      ("cpu", Gallery.cpu, 1000, 1000, 16_053, 8_957);
    ]

(* Nor does a gate step: stimuli go onto the input buses, and probe
   buses into the trace, as ints.  Measured after one reset, so the
   trace already has its capacity. *)
let test_gate_step_allocates_nothing () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let gauge_words =
    let before = Gc.minor_words () in
    Gc.minor_words () -. before
  in
  List.iter
    (fun (name, sys) ->
      with_session "gate" sys (fun ses ->
          steps ses 1000;
          ses.Ocapi_engine.ses_reset ();
          let before = Gc.minor_words () in
          steps ses 1000;
          let words = Gc.minor_words () -. before -. gauge_words in
          Alcotest.(check (float 0.0)) (name ^ ": minor words in 1000 steps")
            0.0 words))
    [ ("rs", Gallery.rs ()); ("cpu", Gallery.cpu ()) ]

(* The result cache keys on the elaboration key: a run of the 5-word
   RAM after one of the 8-word RAM, which shares its digest, misses and
   returns its own uncached histories.  Memory only, so nothing is left
   on disk. *)
let test_cache_keys_ram_words () =
  let run words =
    Flow.simulate ~engine:"compiled" (ram_words_system ~words ()) ~cycles:64
  in
  let uncached = List.map (fun words -> (words, run words)) [ 8; 5 ] in
  Flow.Cache.enable ();
  Flow.Cache.clear ();
  Flow.Cache.reset_stats ();
  Fun.protect
    ~finally:(fun () ->
      Flow.Cache.disable ();
      Flow.Cache.clear ())
    (fun () ->
      List.iter
        (fun (words, expected) ->
          Alcotest.(check bool)
            (Printf.sprintf "%d words, cache on = cache off" words)
            true
            (histories_equal expected (run words)))
        uncached;
      Alcotest.(check int) "no hit across word counts" 0
        (Flow.Cache.stats ()).Flow.Cache.hits)

(* The RT kernel leaves a step's rising edge queued for the next
   settle, and whatever reads or writes its state settles the edge
   first.  On each gallery design over 200 cycles: the component states
   after every step are the interpreter's; a checkpoint taken after a
   step matches at once and again when a run from reset reaches its
   cycle, and its restore steps on as the run from reset did; and a
   register bit flipped after step k changes the rest of the trace as
   the same flip changes the interpreter's. *)
let test_rtl_observers_settle_the_edge () =
  let cycles = 200 and at = 50 in
  List.iter
    (fun (design, build) ->
      with_session "interp" (build ()) (fun ip ->
          with_session "rtl" (build ()) (fun rt ->
              let states ses =
                List.init ses.Ocapi_engine.ses_component_count
                  ses.Ocapi_engine.ses_component_state
              in
              for c = 1 to cycles do
                ip.Ocapi_engine.ses_step ();
                rt.Ocapi_engine.ses_step ();
                if states ip <> states rt then
                  Alcotest.failf "%s: component states differ after step %d" design c
              done;
              let whole = rt.Ocapi_engine.ses_histories () in
              rt.Ocapi_engine.ses_reset ();
              steps rt at;
              let ck = Option.get (rt.Ocapi_engine.ses_checkpoint ()) in
              Alcotest.(check bool) (design ^ ": checkpoint matches at once") true
                (ck.Ocapi_engine.ck_matches ());
              rt.Ocapi_engine.ses_reset ();
              steps rt at;
              Alcotest.(check bool) (design ^ ": the run matches it at its cycle") true
                (ck.Ocapi_engine.ck_matches ());
              steps rt 20;
              ck.Ocapi_engine.ck_restore ();
              steps rt (cycles - at);
              let from_ck =
                List.map (fun (p, h) -> (p, List.filter (fun (c, _) -> c >= at) h)) whole
              in
              Alcotest.(check bool) (design ^ ": restore replays the run") true
                (histories_equal from_ck (rt.Ocapi_engine.ses_histories ()));
              let n = rt.Ocapi_engine.ses_register_count in
              let flipped =
                List.map
                  (fun (k, r) ->
                    let poked ses =
                      ses.Ocapi_engine.ses_reset ();
                      steps ses k;
                      ses.Ocapi_engine.ses_poke_register_bit r ~bit:0;
                      steps ses (cycles - k);
                      ses.Ocapi_engine.ses_histories ()
                    in
                    let expected = poked ip in
                    Alcotest.(check bool)
                      (Printf.sprintf "%s: register %d flipped after step %d" design r k)
                      true
                      (histories_equal expected (poked rt));
                    not (histories_equal expected whole))
                  [ (41, 0); (97, n / 2); (150, n - 1) ]
              in
              Alcotest.(check bool) (design ^ ": a flip changes the trace") true
                (List.mem true flipped))))
    Gallery.designs

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest random_system_property;
      QCheck_alcotest.to_alcotest random_system_rtl_property;
      QCheck_alcotest.to_alcotest random_system_gate_property;
      QCheck_alcotest.to_alcotest random_chain_property;
      Alcotest.test_case "gate activity pinned at 1000 cycles" `Quick
        test_gate_activity_pinned;
      Alcotest.test_case "a warm gate step allocates nothing" `Quick
        test_gate_step_allocates_nothing;
      Alcotest.test_case "cache keys a RAM's word count" `Quick
        test_cache_keys_ram_words;
      Alcotest.test_case "rtl observers see the settled edge" `Quick
        test_rtl_observers_settle_the_edge;
    ]
