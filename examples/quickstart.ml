(* Quickstart: capture a small clock-cycle-true design, check it,
   simulate it on three engines, and synthesize it to gates.

     dune exec examples/quickstart.exe

   The design is a saturating moving-average filter: a 4-deep window of
   s8.4 samples, averaged and saturated, with a freeze input modeled as
   an FSM condition register (the paper's fig 2 style). *)

let fmt = Fixed.signed ~width:8 ~frac:4
let clk = Clock.default

let () =
  (* 1. Capture: registers, one SFG per FSM action. *)
  let window = Array.init 4 (fun i -> Signal.Reg.create clk (Printf.sprintf "w%d" i) fmt) in
  let frozen = Signal.Reg.create clk "frozen" Fixed.bit_format in
  let running =
    Sfg.build "running" (fun b ->
        let x = Sfg.Builder.input b "x" fmt in
        let freeze = Sfg.Builder.input b "freeze" Fixed.bit_format in
        (* Shift the window and average the new contents. *)
        let n = Array.init 4 (fun i -> if i = 0 then x else Signal.reg_q window.(i - 1)) in
        Array.iteri (fun i r -> Sfg.Builder.assign_resized b r n.(i)) window;
        let sum = Signal.(n.(0) +: n.(1) +: n.(2) +: n.(3)) in
        Sfg.Builder.output b "avg"
          (Signal.resize ~round:Fixed.Round_nearest ~overflow:Fixed.Saturate fmt
             (Signal.shift_right sum 2));
        Sfg.Builder.assign b frozen freeze)
  in
  let idle =
    Sfg.build "idle" (fun b ->
        let freeze = Sfg.Builder.input b "freeze" Fixed.bit_format in
        Sfg.Builder.output b "avg" (Signal.resize fmt (Signal.reg_q window.(0)));
        Sfg.Builder.assign b frozen freeze)
  in
  (* 2. Control: a two-state Mealy machine on the registered condition. *)
  let fsm = Fsm.create "filter_ctl" in
  let s_run = Fsm.initial fsm "run" in
  let s_idle = Fsm.state fsm "idle" in
  Fsm.(s_run |-- cnd (Signal.reg_q frozen) |+ idle |-> s_idle);
  Fsm.(s_run |-- always |+ running |-> s_run);
  Fsm.(s_idle |-- cnd (Signal.reg_q frozen) |+ idle |-> s_idle);
  Fsm.(s_idle |-- always |+ running |-> s_run);
  (* 3. System: components over the interconnect, stimuli, probes. *)
  let sys = Cycle_system.create "quickstart" in
  let filt = Cycle_system.add_timed sys "filter" fsm in
  let x_in =
    Cycle_system.add_input sys "x_in" fmt (fun c ->
        Some (Fixed.of_float ~overflow:Fixed.Saturate fmt (sin (float c /. 3.0) *. 2.0)))
  in
  let freeze_in =
    Cycle_system.add_input sys "freeze_in" Fixed.bit_format (fun c ->
        Some (Fixed.of_bool (c >= 12 && c < 18)))
  in
  let avg_out = Cycle_system.add_output sys "avg_out" in
  ignore (Cycle_system.connect sys (x_in, "out") [ (filt, "x") ]);
  ignore (Cycle_system.connect sys (freeze_in, "out") [ (filt, "freeze") ]);
  ignore (Cycle_system.connect sys (filt, "avg") [ (avg_out, "in") ]);
  (* 4. Checks (dangling inputs, FSM reachability, interconnect). *)
  let report = Flow.check sys in
  Format.printf "checks: %a@." Flow.pp_check_report report;
  (* 5. Simulate: interpreted, compiled, event-driven RT — identical. *)
  let disagreements = Flow.engines_agree sys ~cycles:30 in
  (match disagreements with
  | [] -> print_endline "interpreted == compiled == event-driven RT over 30 cycles"
  | l -> List.iter (fun d -> Printf.printf "DISAGREEMENT: %s\n" d) l);
  let histories = Flow.simulate sys ~cycles:30 in
  let avg = List.assoc "avg_out" histories in
  print_string "avg_out: ";
  List.iteri
    (fun i (_, v) -> if i < 12 then Printf.printf "%.3f " (Fixed.to_float v))
    avg;
  print_newline ();
  (* 6. Synthesize to gates and verify against the reference. *)
  let _, rep = Synthesize.synthesize sys in
  Format.printf "%a@." Synthesize.pp_report rep;
  let r = Synthesize.verify sys ~cycles:30 in
  Printf.printf "gate-level verification: %d vectors, %d mismatches\n"
    r.Synthesize.vectors_checked
    (List.length r.Synthesize.mismatches);
  if disagreements <> [] || r.Synthesize.mismatches <> [] then exit 1
