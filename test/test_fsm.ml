(* Tests for Mealy FSM capture and execution (the fig 4 machinery). *)

let clk = Clock.default
let bit = Fixed.bit_format

(* The fig 4 machine: s0 -always/sfg1-> s1; s1 -eof/sfg2-> s1;
   s1 -!eof/sfg3-> s0. *)
let fig4 () =
  let eof = Signal.Reg.create clk "eof" bit in
  let sfg1 = Sfg.nop "sfg1" and sfg2 = Sfg.nop "sfg2" and sfg3 = Sfg.nop "sfg3" in
  let f = Fsm.create "f" in
  let s0 = Fsm.initial f "s0" and s1 = Fsm.state f "s1" in
  Fsm.(s0 |-- always |+ sfg1 |-> s1);
  Fsm.(s1 |-- cnd (Signal.reg_q eof) |+ sfg2 |-> s1);
  Fsm.(s1 |-- cnd Signal.(~:(reg_q eof)) |+ sfg3 |-> s0);
  (f, eof, s0, s1)

let action_names tr = List.map Sfg.name tr.Fsm.t_actions

let test_structure () =
  let f, _, s0, s1 = fig4 () in
  Alcotest.(check int) "states" 2 (List.length (Fsm.states f));
  Alcotest.(check int) "transitions" 3 (List.length (Fsm.transitions f));
  Alcotest.(check string) "initial" "s0" (Fsm.state_name (Fsm.initial_state f));
  Alcotest.(check int) "from s1" 2 (List.length (Fsm.transitions_from f s1));
  Alcotest.(check bool) "state_equal" true (Fsm.state_equal s0 s0);
  Alcotest.(check bool) "distinct" false (Fsm.state_equal s0 s1);
  Alcotest.(check int) "all sfgs" 3 (List.length (Fsm.all_sfgs f));
  Alcotest.(check int) "all regs (guards)" 1 (List.length (Fsm.all_regs f))

let test_execution () =
  let f, eof, _, s1 = fig4 () in
  Fsm.reset f;
  Signal.Reg.reset eof;
  (* s0 -> s1 unconditionally, running sfg1 *)
  (match Fsm.select f with
  | Some tr ->
    Alcotest.(check (list string)) "sfg1" [ "sfg1" ] (action_names tr);
    Fsm.advance f tr
  | None -> Alcotest.fail "no transition from s0");
  Alcotest.(check bool) "in s1" true (Fsm.state_equal (Fsm.current f) s1);
  (* eof = 0: back to s0 via sfg3 *)
  (match Fsm.select f with
  | Some tr ->
    Alcotest.(check (list string)) "sfg3" [ "sfg3" ] (action_names tr);
    Alcotest.(check string) "to s0" "s0" (Fsm.state_name tr.Fsm.t_goto)
  | None -> Alcotest.fail "no transition");
  (* eof = 1: stays in s1 via sfg2 *)
  Signal.Reg.set_value eof (Fixed.of_bool true);
  (match Fsm.select f with
  | Some tr -> Alcotest.(check (list string)) "sfg2" [ "sfg2" ] (action_names tr)
  | None -> Alcotest.fail "no transition");
  Fsm.reset f;
  Alcotest.(check string) "reset to s0" "s0" (Fsm.state_name (Fsm.current f))

let test_priority () =
  (* Two enabled transitions: the first declared wins. *)
  let c = Signal.Reg.create clk "prio_c" bit ~init:(Fixed.of_bool true) in
  let f = Fsm.create "prio" in
  let s0 = Fsm.initial f "s0" in
  Fsm.(s0 |-- cnd (Signal.reg_q c) |+ Sfg.nop "first" |-> s0);
  Fsm.(s0 |-- always |+ Sfg.nop "second" |-> s0);
  Signal.Reg.reset c;
  (match Fsm.select f with
  | Some tr -> Alcotest.(check (list string)) "first wins" [ "first" ] (action_names tr)
  | None -> Alcotest.fail "nothing selected");
  Signal.Reg.set_value c (Fixed.of_bool false);
  match Fsm.select f with
  | Some tr -> Alcotest.(check (list string)) "fallthrough" [ "second" ] (action_names tr)
  | None -> Alcotest.fail "nothing selected"

let test_implicit_hold () =
  let c = Signal.Reg.create clk "hold_c" bit in
  let f = Fsm.create "holder" in
  let s0 = Fsm.initial f "s0" in
  Fsm.(s0 |-- cnd (Signal.reg_q c) |+ Sfg.nop "go" |-> s0);
  Signal.Reg.reset c;
  Alcotest.(check bool) "nothing enabled" true (Fsm.select f = None)

let test_guard_validation () =
  (* Guards must be one bit wide... *)
  (match Fsm.cnd (Signal.consti (Fixed.signed ~width:4 ~frac:0) 1) with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "wide guard accepted");
  (* ...and must not read SFG inputs. *)
  let i = Signal.Input.create "pin" bit in
  match Fsm.cnd (Signal.input i) with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "input-dependent guard accepted"

let test_guard_combinators () =
  let a = Signal.Reg.create clk "ga" bit and b = Signal.Reg.create clk "gb" bit in
  let g =
    Fsm.gand (Fsm.cnd (Signal.reg_q a)) (Fsm.gnot (Fsm.cnd (Signal.reg_q b)))
  in
  let e = Fsm.guard_expr g in
  let env = Signal.Env.create () in
  Signal.Reg.set_value a (Fixed.of_bool true);
  Signal.Reg.set_value b (Fixed.of_bool false);
  Alcotest.(check bool) "a and not b" true (Fixed.is_true (Signal.eval env e));
  Signal.Reg.set_value b (Fixed.of_bool true);
  Alcotest.(check bool) "a and not b off" false (Fixed.is_true (Signal.eval env e));
  Alcotest.(check bool) "gor always" true
    (Fsm.is_always (Fsm.gor Fsm.always (Fsm.cnd (Signal.reg_q a))));
  Alcotest.(check bool) "gand always absorbs" false
    (Fsm.is_always (Fsm.gand Fsm.always (Fsm.cnd (Signal.reg_q a))))

let test_checks () =
  (* Unreachable state. *)
  let f = Fsm.create "unreach" in
  let s0 = Fsm.initial f "s0" in
  let _orphan = Fsm.state f "orphan" in
  Fsm.(s0 |-- always |+ Sfg.nop "n" |-> s0);
  let issues = Fsm.check f in
  Alcotest.(check bool) "unreachable reported" true
    (List.exists
       (function Fsm.Unreachable_state "orphan" -> true | _ -> false)
       issues);
  (* Incomplete machine (can hold implicitly). *)
  let c = Signal.Reg.create clk "chk_c" bit in
  let g = Fsm.create "incomplete" in
  let t0 = Fsm.initial g "t0" in
  Fsm.(t0 |-- cnd (Signal.reg_q c) |+ Sfg.nop "x" |-> t0);
  let issues = Fsm.check g in
  Alcotest.(check bool) "incomplete reported" true
    (List.exists (function Fsm.Incomplete "t0" -> true | _ -> false) issues);
  (* Overlap flagged only when requested. *)
  let h = Fsm.create "overlap" in
  let u0 = Fsm.initial h "u0" in
  Fsm.(u0 |-- always |+ Sfg.nop "p" |-> u0);
  Fsm.(u0 |-- always |+ Sfg.nop "q" |-> u0);
  Alcotest.(check bool) "no overlap by default" false
    (List.exists (function Fsm.Nondeterministic _ -> true | _ -> false)
       (Fsm.check h));
  Alcotest.(check bool) "overlap when flagged" true
    (List.exists (function Fsm.Nondeterministic _ -> true | _ -> false)
       (Fsm.check ~flag_overlaps:true h));
  (* A no-initial machine. *)
  let k = Fsm.create "noinit" in
  ignore (Fsm.state k "lonely");
  Alcotest.(check bool) "no initial" true
    (List.exists (function Fsm.No_initial -> true | _ -> false) (Fsm.check k))

(* The completeness check samples the guard registers; a guard that
   raises on a sample must not leave the sample behind.  This guard
   shifts a nonzero mantissa 70 bits, past what a resize can take. *)
let test_check_restores_registers () =
  let r = Signal.Reg.create clk "chk_shift" (Fixed.signed ~width:8 ~frac:0) in
  let f = Fsm.create "shift_guard" in
  let s0 = Fsm.initial f "s0" in
  Fsm.(
    s0
    |-- cnd
          (Signal.resize bit (Signal.shift_left (Signal.reg_q r) 70))
    |+ Sfg.nop "n" |-> s0);
  (match Fsm.check f with
  | exception e when Raises.code Overflow e -> ()
  | _ -> Alcotest.fail "the guard did not raise");
  Alcotest.(check int) "register restored" 0 (Fixed.to_int (Signal.Reg.value r))

(* Selection keeps per-state transition arrays; adding a state or a
   transition after a selection must show in the next one, also on a
   selector kept across the additions, whose guard memos read the
   registers afresh at every try. *)
let test_selection_sees_additions () =
  let c = Signal.Reg.create clk "sel_c" bit in
  let f = Fsm.create "grow" in
  let s0 = Fsm.initial f "s0" in
  let sel = Fsm.selector f in
  Fsm.(s0 |-- cnd (Signal.reg_q c) |+ Sfg.nop "a" |-> s0);
  Alcotest.(check bool) "nothing enabled" true (Fsm.select f = None);
  Alcotest.(check int) "kept selector: nothing enabled" (-1)
    (Fsm.select_from sel (Fsm.state_index s0));
  Fsm.(s0 |-- always |+ Sfg.nop "b" |-> s0);
  (match Fsm.select f with
  | Some tr ->
    Alcotest.(check (list string)) "later transition" [ "b" ] (action_names tr)
  | None -> Alcotest.fail "added transition not selected");
  Alcotest.(check int) "kept selector: added transition" 1
    (Fsm.select_from sel (Fsm.state_index s0));
  Signal.Reg.set_value c (Fixed.of_int bit 1);
  Alcotest.(check int) "kept selector: the guard reads the register again" 0
    (Fsm.select_from sel (Fsm.state_index s0));
  Signal.Reg.set_value c (Fixed.of_int bit 0);
  let s1 = Fsm.state f "s1" in
  Fsm.(s1 |-- always |+ Sfg.nop "c" |-> s0);
  Fsm.force_state f (Fsm.state_index s1);
  (match Fsm.select f with
  | Some tr ->
    Alcotest.(check (list string)) "added state" [ "c" ] (action_names tr)
  | None -> Alcotest.fail "added state has no transition");
  Alcotest.(check int) "select_from by index" 2 (Fsm.select_from sel (Fsm.state_index s1));
  Alcotest.(check int) "select_from out of range" (-1) (Fsm.select_from sel 5)

let test_duplicate_state_rejected () =
  let f = Fsm.create "dup" in
  ignore (Fsm.initial f "a");
  match Fsm.state f "a" with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "duplicate state accepted"

let test_double_initial_rejected () =
  let f = Fsm.create "dinit" in
  ignore (Fsm.initial f "a");
  match Fsm.initial f "b" with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "second initial accepted"

let test_foreign_state_rejected () =
  let f = Fsm.create "f1" and g = Fsm.create "f2" in
  let sf = Fsm.initial f "s" and sg = Fsm.initial g "s" in
  match Fsm.add_transition f ~from:sf ~guard:Fsm.always ~actions:[] ~goto:sg with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "foreign goto accepted"

let suite =
  [
    Alcotest.test_case "fig 4 structure" `Quick test_structure;
    Alcotest.test_case "fig 4 execution" `Quick test_execution;
    Alcotest.test_case "priority order" `Quick test_priority;
    Alcotest.test_case "implicit hold" `Quick test_implicit_hold;
    Alcotest.test_case "guard validation" `Quick test_guard_validation;
    Alcotest.test_case "guard combinators" `Quick test_guard_combinators;
    Alcotest.test_case "checks" `Quick test_checks;
    Alcotest.test_case "check restores guard registers" `Quick
      test_check_restores_registers;
    Alcotest.test_case "selection sees added states and transitions" `Quick
      test_selection_sees_additions;
    Alcotest.test_case "duplicate state" `Quick test_duplicate_state_rejected;
    Alcotest.test_case "double initial" `Quick test_double_initial_rejected;
    Alcotest.test_case "foreign state" `Quick test_foreign_state_rejected;
  ]
