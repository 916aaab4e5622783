(* Tests for the three-phase cycle scheduler (paper section 4). *)

let s8 = Fixed.signed ~width:8 ~frac:0
let clk = Clock.default

(* An accumulator system (timed only). *)
let accumulator_system () =
  let acc = Signal.Reg.create clk "sch_acc" s8 in
  let sfg =
    Sfg.build "sch_accumulate" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        let sum = Signal.(x +: reg_q acc) in
        Sfg.Builder.output b "sum" (Signal.resize s8 sum);
        Sfg.Builder.assign_resized b acc sum)
  in
  let fsm = Fsm.create "sch_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let sys = Cycle_system.create "sch_smoke" in
  let comp = Cycle_system.add_timed sys "accumulator" fsm in
  let stim =
    Cycle_system.add_input sys "x_in" s8 (fun c -> Some (Fixed.of_int s8 (c + 1)))
  in
  let probe = Cycle_system.add_output sys "sum_out" in
  ignore (Cycle_system.connect sys (stim, "out") [ (comp, "x") ]);
  ignore (Cycle_system.connect sys (comp, "sum") [ (probe, "in") ]);
  (sys, probe)

let test_accumulator () =
  let sys, probe = accumulator_system () in
  Cycle_system.run sys 5;
  let values =
    List.map (fun (_, v) -> Fixed.to_int v) (Cycle_system.output_history sys probe)
  in
  Alcotest.(check (list int)) "triangular" [ 1; 3; 6; 10; 15 ] values;
  Alcotest.(check int) "cycle count" 5 (Cycle_system.current_cycle sys);
  Cycle_system.reset sys;
  Alcotest.(check int) "reset" 0 (Cycle_system.current_cycle sys);
  Alcotest.(check int) "history cleared" 0
    (List.length (Cycle_system.output_history sys probe));
  Cycle_system.run sys 2;
  let values =
    List.map (fun (_, v) -> Fixed.to_int v) (Cycle_system.output_history sys probe)
  in
  Alcotest.(check (list int)) "replays identically" [ 1; 3 ] values

let test_two_phase_matches_on_simple () =
  let sys, probe = accumulator_system () in
  Cycle_system.run ~two_phase:true sys 4;
  let values =
    List.map (fun (_, v) -> Fixed.to_int v) (Cycle_system.output_history sys probe)
  in
  Alcotest.(check (list int)) "2-phase same results" [ 1; 3; 6; 10 ] values

(* The fig 6 situation: a circular dependency between a timed component
   and an untimed one.  The timed component's output to the kernel
   depends only on a register (producible in the token-production
   phase); its register update needs the kernel's reply. *)
let fig6_system () =
  let state = Signal.Reg.create clk "fig6_state" s8 in
  let sfg =
    Sfg.build "fig6_step" (fun b ->
        let reply = Sfg.Builder.input b "reply" s8 in
        Sfg.Builder.output b "query" (Signal.resize s8 (Signal.reg_q state));
        Sfg.Builder.assign_resized b state Signal.(reply +: consti s8 0))
  in
  let fsm = Fsm.create "fig6_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let incr_kernel =
    Dataflow.Kernel.create "incr"
      ~formats:[ ("in", s8); ("out", s8) ]
      ~inputs:[ ("in", 1) ] ~outputs:[ ("out", 1) ]
      (fun consumed ->
        match consumed with
        | [ ("in", [ v ]) ] ->
          [ ("out", [ Fixed.resize s8 (Fixed.add v (Fixed.of_int s8 1)) ]) ]
        | _ -> assert false)
  in
  let sys = Cycle_system.create "fig6" in
  let timed = Cycle_system.add_timed sys "stepper" fsm in
  let untimed = Cycle_system.add_untimed sys incr_kernel in
  let probe = Cycle_system.add_output sys "q_out" in
  ignore (Cycle_system.connect sys (timed, "query") [ (untimed, "in"); (probe, "in") ]);
  ignore (Cycle_system.connect sys (untimed, "out") [ (timed, "reply") ]);
  (sys, probe, state)

let test_fig6_three_phase_resolves () =
  let sys, probe, state = fig6_system () in
  Signal.Reg.reset state;
  Cycle_system.run sys 4;
  let values =
    List.map (fun (_, v) -> Fixed.to_int v) (Cycle_system.output_history sys probe)
  in
  (* Each cycle: query = state; kernel replies state+1; register takes it. *)
  Alcotest.(check (list int)) "counts up" [ 0; 1; 2; 3 ] values;
  let st = Cycle_system.stats sys in
  Alcotest.(check int) "untimed fired each cycle" 4 st.Cycle_system.untimed_firings

let test_fig6_two_phase_deadlocks () =
  let sys, _, state = fig6_system () in
  Signal.Reg.reset state;
  match Cycle_system.run ~two_phase:true sys 1 with
  | exception (Ocapi_error.Error { e_nets = waiting; _ } as e)
    when Raises.code Deadlock e ->
    Alcotest.(check bool) "names the stepper" true
      (List.exists (fun s -> s = "stepper/fig6_step") waiting)
  | () -> Alcotest.fail "two-phase scheduler resolved a circular dependency"

(* Two timed components whose outputs combinationally depend on each
   other's, a.y = b.y + 1 and b.y = a.y + 1, with a probe on a.y: a real
   loop. *)
let comb_loop () =
  let mk name =
    let sfg =
      Sfg.build (name ^ "_sfg") (fun b ->
          let x = Sfg.Builder.input b "x" s8 in
          Sfg.Builder.output b "y" (Signal.resize s8 Signal.(x +: consti s8 1)))
    in
    let fsm = Fsm.create (name ^ "_ctl") in
    let s0 = Fsm.initial fsm "s0" in
    Fsm.(s0 |-- always |+ sfg |-> s0);
    fsm
  in
  let sys = Cycle_system.create "comb_loop" in
  let a = Cycle_system.add_timed sys "a" (mk "a") in
  let b = Cycle_system.add_timed sys "b" (mk "b") in
  let probe = Cycle_system.add_output sys "a_y" in
  ignore (Cycle_system.connect sys (a, "y") [ (b, "x"); (probe, "in") ]);
  ignore (Cycle_system.connect sys (b, "y") [ (a, "x") ]);
  sys

(* Every engine refuses the loop with its own structured error at its
   own fixed budget. *)
let test_true_combinational_loop_detected () =
  let outcome engine =
    let (module E : Ocapi_engine.ENGINE) = Ocapi_engine.get engine in
    match
      let ses = E.make (comb_loop ()) in
      Fun.protect ~finally:ses.Ocapi_engine.ses_close (fun () ->
          Ocapi_engine.run ses ~cycles:1)
    with
    | _ -> Alcotest.failf "%s: combinational loop not detected" engine
    | exception Ocapi_error.Error d -> d
  in
  let engines = [ "interp"; "compiled"; "rtl"; "native"; "gate" ] in
  Alcotest.(check (list string)) "the five registry engines" engines
    (List.filteri (fun i _ -> i < 5) (Ocapi_engine.names ()));
  let d = List.map (fun e -> (e, outcome e)) engines in
  Alcotest.(check (list (pair string string))) "codes"
    [ ("interp", "deadlock"); ("compiled", "unsupported");
      ("rtl", "delta-overflow"); ("native", "unsupported");
      ("gate", "did-not-settle") ]
    (List.map (fun (e, d) -> (e, Ocapi_error.code_label d.Ocapi_error.e_code)) d);
  let nets e = (List.assoc e d).Ocapi_error.e_nets in
  let message e = (List.assoc e d).Ocapi_error.e_message in
  Alcotest.(check (list string)) "interp: both waiting" [ "a/a_sfg"; "b/b_sfg" ]
    (nets "interp");
  Alcotest.(check string) "compiled: the cycle"
    "compiled: combinational component cycle involving a, b; use the \
     interpreted scheduler"
    (message "compiled");
  Alcotest.(check (list string)) "rtl: culprits"
    [ "a.state_next"; "a.y"; "b.state_next"; "b.y" ]
    (nets "rtl");
  Alcotest.(check string) "rtl: the delta budget"
    "no convergence after 1000 delta cycles: 4 signals still scheduling \
     transactions"
    (message "rtl");
  Alcotest.(check string) "gate: the settle budget"
    "netlist comb_loop oscillates: 103 nets still toggling after 178000 \
     evaluations"
    (message "gate")

(* The RT kernel's transaction queue outlives a settle that an
   exception abandons.  Once reset, a session that raised
   [Delta_overflow] steps as a fresh one does: the same diagnostic, and
   the same telemetry — nothing it queued before is applied again. *)
let test_rtl_reset_after_delta_overflow () =
  let (module E : Ocapi_engine.ENGINE) = Ocapi_engine.get "rtl" in
  let overflow ses =
    let d, report =
      Ocapi_obs.run_with_telemetry ~label:"rtl" (fun () ->
          match ses.Ocapi_engine.ses_step () with
          | () -> Alcotest.fail "rtl: combinational loop not detected"
          | exception (Ocapi_error.Error d as e) when Raises.code Delta_overflow e -> d)
    in
    let rtl =
      List.filter_map
        (fun (name, v) ->
          if String.starts_with ~prefix:"rtl." name then
            Some (name ^ " " ^ Ocapi_obs.Json.to_string (Ocapi_obs.value_json v))
          else None)
        report.Ocapi_obs.rp_metrics
    in
    (d.Ocapi_error.e_nets, d.Ocapi_error.e_message, d.Ocapi_error.e_cycle, rtl)
  in
  let session () = E.make (comb_loop ()) in
  let fresh = session () in
  let nets, message, cycle, metrics =
    Fun.protect ~finally:fresh.Ocapi_engine.ses_close (fun () -> overflow fresh)
  in
  let ses = session () in
  Fun.protect ~finally:ses.Ocapi_engine.ses_close (fun () ->
      ignore (overflow ses);
      ses.Ocapi_engine.ses_reset ();
      let nets', message', cycle', metrics' = overflow ses in
      Alcotest.(check (list string)) "culprits" nets nets';
      Alcotest.(check string) "message" message message';
      Alcotest.(check (option int)) "cycle" cycle cycle';
      Alcotest.(check (list string)) "rtl telemetry" metrics metrics')

(* A loop that closes only in a later state: [a] outputs 0 while it
   counts in state s0, and b.y + 1 once its fourth cycle's transition
   has entered s1; b.y = a.y + 1 throughout, with a probe on a.y. *)
let late_loop () =
  let u3 = Fixed.unsigned ~width:3 ~frac:0 in
  let cnt = Signal.Reg.create clk "late_cnt" u3 in
  let plus_one name =
    Sfg.build name (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.output b "y" (Signal.resize s8 Signal.(x +: consti s8 1)))
  in
  let count =
    Sfg.build "late_count" (fun b ->
        Sfg.Builder.output b "y" (Signal.consti s8 0);
        Sfg.Builder.assign_resized b cnt Signal.(reg_q cnt +: consti u3 1))
  in
  let fa = Fsm.create "late_a" in
  let s0 = Fsm.initial fa "s0" and s1 = Fsm.state fa "s1" in
  Fsm.(s0 |-- cnd Signal.(reg_q cnt ==: consti u3 3) |+ count |-> s1);
  Fsm.(s0 |-- always |+ count |-> s0);
  Fsm.(s1 |-- always |+ plus_one "late_loop" |-> s1);
  let fb = Fsm.create "late_b" in
  let t0 = Fsm.initial fb "t0" in
  Fsm.(t0 |-- always |+ plus_one "late_follow" |-> t0);
  let sys = Cycle_system.create "late_loop" in
  let a = Cycle_system.add_timed sys "a" fa in
  let b = Cycle_system.add_timed sys "b" fb in
  let probe = Cycle_system.add_output sys "a_y" in
  ignore (Cycle_system.connect sys (a, "y") [ (b, "x"); (probe, "in") ]);
  ignore (Cycle_system.connect sys (b, "y") [ (a, "x") ]);
  sys

(* A path through the signals that closes in some state makes the RT
   elaboration cyclic, and a cyclic elaboration settles each rising edge
   within its step and queues every transaction: the loop overflows the
   delta budget in the edge settle of the cycle that enters s1 (cycle
   3).  The latch takes the first delta of that budget, so the loop,
   whose two halves run in alternate deltas, names the signals [a]
   drives. *)
let test_rtl_loop_closing_later () =
  let (module E : Ocapi_engine.ENGINE) = Ocapi_engine.get "rtl" in
  let ses = E.make (late_loop ()) in
  Fun.protect ~finally:ses.Ocapi_engine.ses_close (fun () ->
      let rec run n =
        if n = 0 then Alcotest.fail "rtl: the loop closed in s1 was not detected";
        match ses.Ocapi_engine.ses_step () with
        | () -> run (n - 1)
        | exception (Ocapi_error.Error d as e) when Raises.code Delta_overflow e -> d
      in
      let d = run 10 in
      Alcotest.(check (option int)) "cycle" (Some 3) d.Ocapi_error.e_cycle;
      Alcotest.(check (list string)) "culprits"
        [ "a.late_cnt_next"; "a.state_next"; "a.y" ]
        d.Ocapi_error.e_nets;
      Alcotest.(check string) "message"
        "no convergence after 1000 delta cycles: 3 signals still scheduling \
         transactions"
        d.Ocapi_error.e_message;
      Alcotest.(check (list (pair int int))) "a.y before the edge"
        [ (0, 0); (1, 0); (2, 0); (3, 0) ]
        (List.map
           (fun (c, v) -> (c, Fixed.to_int v))
           (List.assoc "a_y" (ses.Ocapi_engine.ses_histories ()))))

(* A register one component assigns and another reads: interp, compiled
   and native simulate one register; rtl and gate would give the
   reading component a copy that never updates, so they refuse the
   system at make, and [check] reports it. *)
let test_shared_register () =
  let count = Signal.Reg.create clk "shared_count" s8 in
  let timed name sfg =
    let fsm = Fsm.create name in
    let s0 = Fsm.initial fsm "s0" in
    Fsm.(s0 |-- always |+ sfg |-> s0);
    fsm
  in
  let counter () =
    let inc =
      Sfg.build "shared_inc" (fun b ->
          Sfg.Builder.assign_resized b count Signal.(reg_q count +: consti s8 1))
    in
    let out =
      Sfg.build "shared_out" (fun b ->
          Sfg.Builder.output b "y" (Signal.resize s8 (Signal.reg_q count)))
    in
    let sys = Cycle_system.create "shared" in
    ignore (Cycle_system.add_timed sys "a" (timed "shared_a" inc));
    let b = Cycle_system.add_timed sys "b" (timed "shared_b" out) in
    let probe = Cycle_system.add_output sys "y" in
    ignore (Cycle_system.connect sys (b, "y") [ (probe, "in") ]);
    sys
  in
  Alcotest.(check (list string)) "check"
    [ "shared register: shared_count is assigned in a and read in b" ]
    (List.map (Format.asprintf "%a" Cycle_system.pp_issue) (Cycle_system.check (counter ())));
  List.iter
    (fun engine ->
      let (module E : Ocapi_engine.ENGINE) = Ocapi_engine.get engine in
      let ses = E.make (counter ()) in
      Fun.protect ~finally:ses.Ocapi_engine.ses_close (fun () ->
          let h = Cycle_system.Trace.to_histories (Ocapi_engine.run ses ~cycles:6) in
          Alcotest.(check (list int)) (engine ^ ": one register") [ 0; 1; 2; 3; 4; 5 ]
            (List.map (fun (_, v) -> Fixed.to_int v) (List.assoc "y" h))))
    [ "interp"; "compiled"; "native" ];
  List.iter
    (fun engine ->
      let (module E : Ocapi_engine.ENGINE) = Ocapi_engine.get engine in
      match E.make (counter ()) with
      | ses ->
        ses.Ocapi_engine.ses_close ();
        Alcotest.failf "%s: shared register accepted" engine
      | exception (Ocapi_error.Error d as e) when Raises.code Unsupported e ->
        Alcotest.(check (option string)) (engine ^ ": register") (Some "shared_count")
          d.Ocapi_error.e_construct;
        Alcotest.(check (list string)) (engine ^ ": components") [ "a"; "b" ]
          d.Ocapi_error.e_nets;
        Alcotest.(check string) (engine ^ ": engine") engine d.Ocapi_error.e_engine)
    [ "rtl"; "gate" ]

(* A register two components read and none assigns: interp, compiled
   and native simulate one register, so a poke reaches both readers;
   rtl and gate would give each reader a copy and flip only one, so
   they refuse the system at make, and [check] reports it. *)
let test_unassigned_shared_register () =
  let r = Signal.Reg.create clk "twin_r" s8 in
  let reader name =
    let sfg =
      Sfg.build (name ^ "_out") (fun b ->
          Sfg.Builder.output b "y" (Signal.resize s8 (Signal.reg_q r)))
    in
    let fsm = Fsm.create name in
    let s0 = Fsm.initial fsm "s0" in
    Fsm.(s0 |-- always |+ sfg |-> s0);
    fsm
  in
  let two_readers () =
    let sys = Cycle_system.create "twin" in
    List.iter
      (fun (c, probe) ->
        let comp = Cycle_system.add_timed sys c (reader ("twin_" ^ c)) in
        let p = Cycle_system.add_output sys probe in
        ignore (Cycle_system.connect sys (comp, "y") [ (p, "in") ]))
      [ ("a", "ya"); ("b", "yb") ];
    sys
  in
  Alcotest.(check (list string)) "check"
    [ "shared register: twin_r is read in a and b and assigned in none" ]
    (List.map (Format.asprintf "%a" Cycle_system.pp_issue)
       (Cycle_system.check (two_readers ())));
  List.iter
    (fun engine ->
      let (module E : Ocapi_engine.ENGINE) = Ocapi_engine.get engine in
      let ses = E.make (two_readers ()) in
      Fun.protect ~finally:ses.Ocapi_engine.ses_close (fun () ->
          let h =
            Cycle_system.Trace.to_histories
              (Ocapi_engine.run ses ~cycles:4
                 ~inject:(2, fun () -> ses.Ocapi_engine.ses_poke_register_bit 0 ~bit:0))
          in
          List.iter
            (fun probe ->
              Alcotest.(check (list int)) (engine ^ ": " ^ probe) [ 0; 0; 1; 1 ]
                (List.map (fun (_, v) -> Fixed.to_int v) (List.assoc probe h)))
            [ "ya"; "yb" ]))
    [ "interp"; "compiled"; "native" ];
  List.iter
    (fun engine ->
      let (module E : Ocapi_engine.ENGINE) = Ocapi_engine.get engine in
      match E.make (two_readers ()) with
      | ses ->
        ses.Ocapi_engine.ses_close ();
        Alcotest.failf "%s: register with two readers accepted" engine
      | exception (Ocapi_error.Error d as e) when Raises.code Unsupported e ->
        Alcotest.(check (option string)) (engine ^ ": register") (Some "twin_r")
          d.Ocapi_error.e_construct;
        Alcotest.(check (list string)) (engine ^ ": readers") [ "a"; "b" ]
          d.Ocapi_error.e_nets;
        Alcotest.(check string) (engine ^ ": message")
          (engine
         ^ ": register twin_r is read in a and b and assigned in none; each \
            component would read a copy of its own, so use the interp, \
            compiled or native engine")
          d.Ocapi_error.e_message)
    [ "rtl"; "gate" ]

let test_checks () =
  let sys, _ = accumulator_system () in
  Alcotest.(check int) "clean system" 0 (List.length (Cycle_system.check sys));
  (* A dangling input. *)
  let sfg =
    Sfg.build "lonely" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.output b "y" (Signal.resize s8 x))
  in
  let fsm = Fsm.create "lonely_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let sys2 = Cycle_system.create "dangling" in
  ignore (Cycle_system.add_timed sys2 "c" fsm);
  let issues = Cycle_system.check sys2 in
  Alcotest.(check bool) "dangling input reported" true
    (List.exists
       (function Cycle_system.Unconnected_input ("c", "x") -> true | _ -> false)
       issues);
  Alcotest.(check bool) "unconnected output reported" true
    (List.exists
       (function Cycle_system.Unconnected_output ("c", "y") -> true | _ -> false)
       issues)

let test_connect_validation () =
  let sys, _ = accumulator_system () in
  let comp =
    match Cycle_system.find_component sys "accumulator" with
    | Some c -> c
    | None -> Alcotest.fail "component lost"
  in
  (match Cycle_system.connect sys (comp, "nonexistent") [] with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "bad driver port accepted");
  (match Cycle_system.connect sys (comp, "sum") [ (comp, "x") ] with
  | exception e when Raises.code Internal e -> () (* x is already driven *)
  | _ -> Alcotest.fail "double-driven sink accepted");
  (* A second net from one output port: fan-out belongs in the first
     net's sink list. *)
  let stim =
    match Cycle_system.find_component sys "x_in" with
    | Some c -> c
    | None -> Alcotest.fail "input lost"
  in
  let tap = Cycle_system.add_output sys "x_tap" in
  match Cycle_system.connect sys (stim, "out") [ (tap, "in") ] with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "second net from one output port accepted"

(* Two designs whose net formats break a rule: (a) port [c.y] produced
   in s8 by one SFG and in s10 by the other; (b) input net [x_in.out]
   carrying s8 into [c.x], declared s10.  The interpreter moves the
   tokens as they come; every static back end raises the one
   diagnostic, and [check] lists it. *)
let s10 = Fixed.signed ~width:10 ~frac:0

let conflict_system which =
  let sfg name ~in_fmt ~out_fmt =
    Sfg.build name (fun b ->
        let x = Sfg.Builder.input b "x" in_fmt in
        Sfg.Builder.output b "y" (Signal.resize out_fmt x))
  in
  let fsm = Fsm.create "fc_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  (match which with
  | `Two_producers ->
    let s1 = Fsm.state fsm "s1" in
    Fsm.(s0 |-- always |+ sfg "fc_narrow" ~in_fmt:s8 ~out_fmt:s8 |-> s1);
    Fsm.(s1 |-- always |+ sfg "fc_wide" ~in_fmt:s8 ~out_fmt:s10 |-> s0)
  | `Sink_declares_other ->
    Fsm.(s0 |-- always |+ sfg "fc_wide_in" ~in_fmt:s10 ~out_fmt:s10 |-> s0));
  let sys = Cycle_system.create "format_conflict" in
  let c = Cycle_system.add_timed sys "c" fsm in
  let stim =
    Cycle_system.add_input sys "x_in" s8 (fun k -> Some (Fixed.of_int s8 (k - 3)))
  in
  let probe = Cycle_system.add_output sys "y_out" in
  ignore (Cycle_system.connect sys (stim, "out") [ (c, "x") ]);
  ignore (Cycle_system.connect sys (c, "y") [ (probe, "in") ]);
  sys

let test_format_conflicts () =
  let f = Fixed.format_to_string in
  List.iter
    (fun (which, msg) ->
      let issues =
        List.filter_map
          (function
            | Cycle_system.Format_conflict (_, m) -> Some m
            | Cycle_system.Unconnected_input _ | Unconnected_output _
            | Unknown_port _ | Shared_register _ | Unassigned_shared_register _ ->
              None)
          (Cycle_system.check (conflict_system which))
      in
      Alcotest.(check (list string)) "check lists the conflict" [ msg ] issues;
      let raises what run =
        match run (conflict_system which) with
        | exception Ocapi_error.Error e ->
          Alcotest.(check bool) (what ^ ": Internal") true
            (e.Ocapi_error.e_code = Ocapi_error.Internal);
          Alcotest.(check string) (what ^ ": engine") "sched" e.Ocapi_error.e_engine;
          Alcotest.(check string) (what ^ ": message") msg e.Ocapi_error.e_message
        | () -> Alcotest.failf "%s accepted: %s" what msg
      in
      List.iter
        (fun engine ->
          raises engine (fun sys -> ignore (Flow.simulate ~engine sys ~cycles:4)))
        [ "compiled"; "native"; "rtl"; "gate" ];
      raises "Vhdl.of_system" (fun sys -> ignore (Vhdl.of_system sys));
      raises "Testbench.vhdl" (fun sys ->
          ignore (Testbench.vhdl sys (Testbench.record sys ~cycles:4)));
      let interp = Flow.simulate ~engine:"interp" (conflict_system which) ~cycles:4 in
      Alcotest.(check int) "interp runs" 4 (List.length (List.assoc "y_out" interp)))
    [
      ( `Two_producers,
        Printf.sprintf "net c.y driven with inconsistent formats %s and %s" (f s8)
          (f s10) );
      ( `Sink_declares_other,
        Printf.sprintf "net x_in.out carries %s but input c.x is declared %s" (f s8)
          (f s10) );
    ]

(* A kernel without declared formats that passes even inputs on and
   widens odd ones to s10: its probe carries two formats. *)
let mixed_kernel_system () =
  let k =
    Dataflow.Kernel.create "mix" ~inputs:[ ("in", 1) ] ~outputs:[ ("out", 1) ]
      (fun consumed ->
        let v = List.hd (List.assoc "in" consumed) in
        [ ("out", [ (if Fixed.to_int v land 1 = 0 then v else Fixed.resize s10 v) ]) ])
  in
  let sys = Cycle_system.create "mixed_kernel" in
  let stim =
    Cycle_system.add_input sys "x_in" s8 (fun c -> Some (Fixed.of_int s8 ((3 * c) - 7)))
  in
  let kc = Cycle_system.add_untimed sys k in
  let probe = Cycle_system.add_output sys "y_out" in
  ignore (Cycle_system.connect sys (stim, "out") [ (kc, "in") ]);
  ignore (Cycle_system.connect sys (kc, "out") [ (probe, "in") ]);
  sys

(* The interpreter records every probe token in its own format.  The
   [`Two_producers] design and [mixed_kernel_system] put s8 and s10
   tokens on one probe; their histories, formats included, are pinned,
   and each probe's [output_history] reads the same tokens. *)
let test_mixed_format_histories () =
  let line (p, toks) =
    List.map
      (fun (c, v) ->
        Printf.sprintf "%s %d %Ld %s" p c (Fixed.mantissa v)
          (Fixed.format_to_string (Fixed.fmt v)))
      toks
  in
  List.iter
    (fun (name, sys, md5) ->
      Cycle_system.run sys 12;
      let h = Cycle_system.Trace.to_histories (Cycle_system.trace sys) in
      let formats =
        List.sort_uniq compare
          (List.concat_map (fun (_, toks) -> List.map (fun (_, v) -> Fixed.fmt v) toks) h)
      in
      Alcotest.(check int) (name ^ ": formats on the probe") 2 (List.length formats);
      List.iter
        (fun (p, toks) ->
          Alcotest.(check bool)
            (name ^ ": output_history " ^ p) true
            (Cycle_system.output_history sys
               (Option.get (Cycle_system.find_component sys p))
            = toks))
        h;
      Alcotest.(check string)
        (name ^ ": histories pinned") md5
        (Digest.to_hex (Digest.string (String.concat "\n" (List.concat_map line h)))))
    [
      ("two producers", conflict_system `Two_producers, "9c477995ea197799fd59f47959d52954");
      ("kernel without formats", mixed_kernel_system (), "7e4aede76dd03167ce6cc1fea2b16bce");
    ]

let test_missing_stimulus_deadlocks () =
  let sys, _ = accumulator_system () in
  (* A fresh system whose stimulus skips cycle 2. *)
  ignore sys;
  let acc = Signal.Reg.create clk "ms_acc" s8 in
  let sfg =
    Sfg.build "ms_sfg" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.assign_resized b acc Signal.(x +: reg_q acc);
        Sfg.Builder.output b "o" (Signal.resize s8 (Signal.reg_q acc)))
  in
  let fsm = Fsm.create "ms_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let sys = Cycle_system.create "missing" in
  let comp = Cycle_system.add_timed sys "c" fsm in
  let stim =
    Cycle_system.add_input sys "x_in" s8 (fun c ->
        if c = 2 then None else Some (Fixed.of_int s8 1))
  in
  ignore (Cycle_system.connect sys (stim, "out") [ (comp, "x") ]);
  Cycle_system.run sys 2;
  match Cycle_system.cycle sys with
  | exception e when Raises.code Deadlock e -> ()
  | () -> Alcotest.fail "missing token not detected"

let test_net_tracing () =
  let acc = Signal.Reg.create clk "tr_acc" s8 in
  let sfg =
    Sfg.build "tr_sfg" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.output b "o" (Signal.resize s8 x);
        Sfg.Builder.assign_resized b acc Signal.(x +: consti s8 0))
  in
  let fsm = Fsm.create "tr_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let sys = Cycle_system.create "traced" in
  let comp = Cycle_system.add_timed sys "c" fsm in
  let stim =
    Cycle_system.add_input sys "x_in" s8 (fun c -> Some (Fixed.of_int s8 c))
  in
  let net = Cycle_system.connect sys (stim, "out") [ (comp, "x") ] in
  let nets = Cycle_system.trace_all sys in
  Cycle_system.run sys 3;
  let i = Cycle_system.net_index net in
  Alcotest.(check (list (pair int int))) "trace" [ (0, 0); (1, 1); (2, 2) ]
    (List.init (Cycle_system.Trace.length nets i) (fun k ->
         ( Cycle_system.Trace.cycle nets i k,
           Fixed.to_int (Cycle_system.Trace.token nets i k) )));
  Alcotest.(check int) "input history" 3
    (List.length (Cycle_system.stimuli sys ~cycles:3))

let test_sfg_kernel_bridge () =
  (* An SFG with state behaves identically as a data-flow kernel. *)
  let acc = Signal.Reg.create clk "br_acc" s8 in
  let sfg =
    Sfg.build "br_sfg" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        let sum = Signal.(x +: reg_q acc) in
        Sfg.Builder.output b "sum" (Signal.resize s8 sum);
        Sfg.Builder.assign_resized b acc sum)
  in
  Signal.Reg.reset acc;
  let k = Sfg_kernel.kernel_of_sfg sfg in
  let g = Dataflow.create "bridge" in
  let src =
    Dataflow.add_process g
      (Dataflow.Kernel.source "s" (List.map (Fixed.of_int s8) [ 1; 2; 3 ]))
  in
  let p = Dataflow.add_process g k in
  let sink_k, drained = Dataflow.Kernel.sink "d" in
  let sink = Dataflow.add_process g sink_k in
  ignore (Dataflow.connect g (src, "out") (p, "x"));
  ignore (Dataflow.connect g (p, "sum") (sink, "in"));
  ignore (Dataflow.run g);
  Alcotest.(check (list int)) "running sums" [ 1; 3; 6 ]
    (List.map Fixed.to_int (drained ()));
  k.Dataflow.Kernel.k_reset ();
  Alcotest.(check int) "bridge reset clears state" 0
    (Fixed.to_int (Signal.Reg.value acc))

let test_stats () =
  let sys, _ = accumulator_system () in
  Cycle_system.run sys 10;
  let st = Cycle_system.stats sys in
  Alcotest.(check int) "cycles" 10 st.Cycle_system.cycles;
  Alcotest.(check bool) "tokens flowed" true (st.Cycle_system.tokens_transferred >= 20)


(* The scheduler's activity over 1,000 cycles of each gallery design,
   from a fresh build: the run table resolves the same firings, token
   deliveries, evaluation sweeps and kernel firings that the per-cycle
   lookups it replaced made. *)
let test_gallery_stats_pinned () =
  List.iter
    (fun (name, build, tokens, evals, untimed) ->
      let sys = build () in
      Cycle_system.run sys 1000;
      let st = Cycle_system.stats sys in
      Alcotest.(check (list int)) name [ 1000; tokens; evals; untimed ]
        [ st.Cycle_system.cycles; st.tokens_transferred; st.eval_iterations;
          st.untimed_firings ])
    [
      ("hcor", Gallery.hcor, 6_000, 0, 0);
      ("dect", Gallery.dect, 53_000, 1_799, 7_000);
      ("rs", Gallery.rs, 6_000, 0, 0);
      ("cpu", Gallery.cpu, 9_000, 2_000, 1_000);
    ]

let ints sys probe =
  List.map (fun (c, v) -> (c, Fixed.to_int v)) (Cycle_system.output_history sys probe)

(* Components added and connected after the system has stepped: the
   new probe, on an output that dropped its tokens until then, and the
   new component take part from the next cycle. *)
let test_added_after_stepping () =
  let sfg =
    Sfg.build "late_pass" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.output b "y" (Signal.resize s8 x);
        Sfg.Builder.output b "z" (Signal.resize s8 (Signal.neg x)))
  in
  let timed name sfg =
    let fsm = Fsm.create name in
    let s0 = Fsm.initial fsm "s0" in
    Fsm.(s0 |-- always |+ sfg |-> s0);
    fsm
  in
  let sys = Cycle_system.create "late" in
  let a = Cycle_system.add_timed sys "a" (timed "late_a" sfg) in
  let stim = Cycle_system.add_input sys "x_in" s8 (fun c -> Some (Fixed.of_int s8 c)) in
  let py = Cycle_system.add_output sys "y_out" in
  ignore (Cycle_system.connect sys (stim, "out") [ (a, "x") ]);
  ignore (Cycle_system.connect sys (a, "y") [ (py, "in") ]);
  Cycle_system.run sys 2;
  let pz = Cycle_system.add_output sys "z_out" in
  ignore (Cycle_system.connect sys (a, "z") [ (pz, "in") ]);
  let double =
    Sfg.build "late_double" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.output b "y" (Signal.resize s8 Signal.(x +: x)))
  in
  let b = Cycle_system.add_timed sys "b" (timed "late_b" double) in
  let stim_b =
    Cycle_system.add_input sys "xb_in" s8 (fun c -> Some (Fixed.of_int s8 (10 + c)))
  in
  let pb = Cycle_system.add_output sys "b_out" in
  ignore (Cycle_system.connect sys (stim_b, "out") [ (b, "x") ]);
  ignore (Cycle_system.connect sys (b, "y") [ (pb, "in") ]);
  Cycle_system.run sys 2;
  Alcotest.(check (list (pair int int)))
    "y all along" [ (0, 0); (1, 1); (2, 2); (3, 3) ] (ints sys py);
  Alcotest.(check (list (pair int int))) "z from the next cycle" [ (2, -2); (3, -3) ]
    (ints sys pz);
  Alcotest.(check (list (pair int int))) "b from the next cycle" [ (2, 24); (3, 26) ]
    (ints sys pb);
  Alcotest.(check int) "tokens" 14
    (Cycle_system.stats sys).Cycle_system.tokens_transferred

(* A transition added to an FSM after the system has stepped, past the
   transitions the scheduler has resolved, is taken when it is
   selected; its action reads the component's input port. *)
let test_transition_added_after_stepping () =
  let count = Signal.Reg.create clk "late_count" s8 in
  let step =
    Sfg.build "late_step" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.output b "y" (Signal.resize s8 Signal.(x +: reg_q count));
        Sfg.Builder.assign_resized b count Signal.(reg_q count +: consti s8 1))
  in
  let fsm = Fsm.create "late_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  let s1 = Fsm.state fsm "s1" in
  Fsm.(s0 |-- cnd Signal.(reg_q count ==: consti s8 2) |-> s1);
  Fsm.(s0 |-- always |+ step |-> s0);
  let sys = Cycle_system.create "late_fsm" in
  let c = Cycle_system.add_timed sys "c" fsm in
  let stim =
    Cycle_system.add_input sys "x_in" s8 (fun cyc -> Some (Fixed.of_int s8 (10 * cyc)))
  in
  let probe = Cycle_system.add_output sys "y_out" in
  ignore (Cycle_system.connect sys (stim, "out") [ (c, "x") ]);
  ignore (Cycle_system.connect sys (c, "y") [ (probe, "in") ]);
  Signal.Reg.reset count;
  (* Counts at cycles 0 and 1, leaves for s1 at 2, holds there at 3. *)
  Cycle_system.run sys 4;
  let negate =
    Sfg.build "late_negate" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.output b "y" (Signal.resize s8 (Signal.neg x)))
  in
  Fsm.(s1 |-- always |+ negate |-> s1);
  Cycle_system.run sys 2;
  Alcotest.(check (list (pair int int))) "negated from cycle 4"
    [ (0, 0); (1, 11); (4, -40); (5, -50) ]
    (ints sys probe);
  Alcotest.(check string) "in s1" "s1" (Fsm.state_name (Fsm.current fsm))

(* One token on a port completes every action SFG of the selected
   transition that declares an input of that name: each its own input
   object, or one shared through [input_port]. *)
let test_token_completes_every_action () =
  let r1 = Signal.Reg.create clk "fan_r1" s8
  and r2 = Signal.Reg.create clk "fan_r2" s8 in
  let shared = Signal.Input.create "x" s8 in
  let first =
    Sfg.build "fan_first" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.output b "y1" (Signal.resize s8 Signal.(x +: consti s8 1));
        Sfg.Builder.assign_resized b r1 x)
  in
  let second =
    Sfg.build "fan_second" (fun b ->
        let x = Sfg.Builder.input_port b shared in
        Sfg.Builder.output b "y2" (Signal.resize s8 (Signal.neg x));
        Sfg.Builder.assign_resized b r2 Signal.(x +: reg_q r2))
  in
  let third =
    Sfg.build "fan_third" (fun b ->
        let x = Sfg.Builder.input_port b shared in
        Sfg.Builder.output b "y3" (Signal.resize s8 Signal.(x +: reg_q r1)))
  in
  let fsm = Fsm.create "fan_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ first |+ second |+ third |-> s0);
  let sys = Cycle_system.create "fan" in
  let c = Cycle_system.add_timed sys "c" fsm in
  let stim =
    Cycle_system.add_input sys "x_in" s8 (fun cyc -> Some (Fixed.of_int s8 (cyc + 1)))
  in
  let probes =
    List.map
      (fun port ->
        let p = Cycle_system.add_output sys (port ^ "_out") in
        ignore (Cycle_system.connect sys (c, port) [ (p, "in") ]);
        p)
      [ "y1"; "y2"; "y3" ]
  in
  ignore (Cycle_system.connect sys (stim, "out") [ (c, "x") ]);
  Signal.Reg.reset r1;
  Signal.Reg.reset r2;
  Cycle_system.run sys 3;
  Alcotest.(check (list (list (pair int int)))) "every output every cycle"
    [
      [ (0, 2); (1, 3); (2, 4) ];
      [ (0, -1); (1, -2); (2, -3) ];
      [ (0, 1); (1, 3); (2, 5) ];
    ]
    (List.map (ints sys) probes);
  Alcotest.(check (pair int int)) "both registers" (3, 6)
    (Fixed.to_int (Signal.Reg.value r1), Fixed.to_int (Signal.Reg.value r2));
  Alcotest.(check int) "no sweep waited" 0
    (Cycle_system.stats sys).Cycle_system.eval_iterations

(* Section 4's comparison: the same circular structure works as a pure
   data-flow graph when an initial token is introduced, and the token
   streams of the two paradigms coincide. *)
let test_fig6_dataflow_with_initial_token () =
  let sys, probe, state = fig6_system () in
  Signal.Reg.reset state;
  Cycle_system.run sys 6;
  let cycle_stream =
    List.map (fun (_, v) -> Fixed.to_int v) (Cycle_system.output_history sys probe)
  in
  (* The data-flow formulation: the register becomes an initial token
     on the feedback channel (holding the register's init value), and
     the stepper reduces to passing the reply through as the next
     query — exactly the transformation section 4 describes. *)
  let g = Dataflow.create "fig6_df" in
  let queries = ref [] in
  let stepper =
    Dataflow.Kernel.create "stepper" ~inputs:[ ("reply", 1) ]
      ~outputs:[ ("query", 1) ]
      (fun consumed ->
        match consumed with
        | [ ("reply", [ r ]) ] ->
          queries := r :: !queries;
          [ ("query", [ Fixed.resize s8 r ]) ]
        | _ -> assert false)
  in
  let incr =
    Dataflow.Kernel.create "incr" ~inputs:[ ("in", 1) ] ~outputs:[ ("out", 1) ]
      (fun consumed ->
        match consumed with
        | [ ("in", [ v ]) ] ->
          [ ("out", [ Fixed.resize s8 (Fixed.add v (Fixed.of_int s8 1)) ]) ]
        | _ -> assert false)
  in
  let p_step = Dataflow.add_process g stepper in
  let p_incr = Dataflow.add_process g incr in
  ignore (Dataflow.connect g (p_step, "query") (p_incr, "in"));
  let back = Dataflow.connect g (p_incr, "out") (p_step, "reply") in
  (* Without the initial token: stuck.  With it: the loop turns. *)
  let stats = Dataflow.run ~max_firings:4 g in
  Alcotest.(check int) "stuck without initial token" 0 stats.Dataflow.steps;
  Dataflow.initial_tokens g back [ Fixed.of_int s8 0 ];
  ignore (Dataflow.run ~max_firings:12 g);
  let df_stream = List.rev_map Fixed.to_int !queries in
  (* Both paradigms produce the same counting sequence. *)
  List.iteri
    (fun i v ->
      match List.nth_opt df_stream i with
      | Some w -> Alcotest.(check int) (Printf.sprintf "token %d" i) v w
      | None -> Alcotest.fail "data-flow stream too short")
    cycle_stream

let suite =
  [
    Alcotest.test_case "accumulator" `Quick test_accumulator;
    Alcotest.test_case "two-phase on loop-free design" `Quick
      test_two_phase_matches_on_simple;
    Alcotest.test_case "fig 6: three-phase resolves" `Quick
      test_fig6_three_phase_resolves;
    Alcotest.test_case "fig 6: two-phase deadlocks" `Quick
      test_fig6_two_phase_deadlocks;
    Alcotest.test_case "fig 6: data-flow with initial token" `Quick
      test_fig6_dataflow_with_initial_token;
    Alcotest.test_case "combinational loop detected" `Quick
      test_true_combinational_loop_detected;
    Alcotest.test_case "interconnect checks" `Quick test_checks;
    Alcotest.test_case "connect validation" `Quick test_connect_validation;
    Alcotest.test_case "net format conflicts" `Quick test_format_conflicts;
    Alcotest.test_case "mixed-format probe histories pinned" `Quick
      test_mixed_format_histories;
    Alcotest.test_case "missing stimulus deadlocks" `Quick
      test_missing_stimulus_deadlocks;
    Alcotest.test_case "net tracing" `Quick test_net_tracing;
    Alcotest.test_case "sfg-kernel bridge" `Quick test_sfg_kernel_bridge;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "gallery stats pinned at 1000 cycles" `Quick
      test_gallery_stats_pinned;
    Alcotest.test_case "components added after stepping" `Quick
      test_added_after_stepping;
    Alcotest.test_case "transition added after stepping" `Quick
      test_transition_added_after_stepping;
    Alcotest.test_case "a token completes every action" `Quick
      test_token_completes_every_action;
    Alcotest.test_case "rtl reset after delta overflow = fresh session" `Quick
      test_rtl_reset_after_delta_overflow;
    Alcotest.test_case "registers shared between components" `Quick
      test_shared_register;
    Alcotest.test_case "a register two components read and none assigns" `Quick
      test_unassigned_shared_register;
    Alcotest.test_case "rtl loop closing in a later state" `Quick
      test_rtl_loop_closing_later;
  ]
