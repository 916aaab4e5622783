(* Tests for signals, expressions and evaluation. *)

let s8 = Fixed.signed ~width:8 ~frac:0
let s84 = Fixed.signed ~width:8 ~frac:4
let u4 = Fixed.unsigned ~width:4 ~frac:0
let clk = Clock.default
let fx = Fixed.of_float

let eval_closed e = Signal.eval (Signal.Env.create ()) e

let test_constants () =
  let c = Signal.constf s84 1.5 in
  Alcotest.(check (float 1e-9)) "constf" 1.5 (Fixed.to_float (eval_closed c));
  let c = Signal.consti s8 (-42) in
  Alcotest.(check int) "consti" (-42) (Fixed.to_int (eval_closed c));
  Alcotest.(check bool) "vdd" true (Fixed.is_true (eval_closed Signal.vdd));
  Alcotest.(check bool) "gnd" false (Fixed.is_true (eval_closed Signal.gnd))

let test_operators_formats () =
  let a = Signal.constf s84 1.0 and b = Signal.constf s84 1.0 in
  Alcotest.(check int) "add widens" 9 (Signal.fmt Signal.(a +: b)).Fixed.width;
  Alcotest.(check int) "mul widens" 16 (Signal.fmt Signal.(a *: b)).Fixed.width;
  Alcotest.(check int) "eq is a bit" 1 (Signal.fmt Signal.(a ==: b)).Fixed.width;
  Alcotest.(check int) "neg widens" 9 (Signal.fmt (Signal.neg a)).Fixed.width

let test_eval_arithmetic () =
  let a = Signal.constf s84 2.5 and b = Signal.constf s84 (-1.25) in
  let check name expect e =
    Alcotest.(check (float 1e-9)) name expect (Fixed.to_float (eval_closed e))
  in
  check "add" 1.25 Signal.(a +: b);
  check "sub" 3.75 Signal.(a -: b);
  check "mul" (-3.125) Signal.(a *: b);
  check "neg" (-2.5) (Signal.neg a);
  check "abs" 1.25 (Signal.abs_ b);
  Alcotest.(check bool) "lt" true (Fixed.is_true (eval_closed Signal.(b <: a)));
  Alcotest.(check bool) "ge" true (Fixed.is_true (eval_closed Signal.(a >=: b)));
  Alcotest.(check bool) "ne" true (Fixed.is_true (eval_closed Signal.(a <>: b)))

let test_mux () =
  let a = Signal.consti s8 10 and b = Signal.consti s8 20 in
  let m1 = Signal.mux2 Signal.vdd a b and m0 = Signal.mux2 Signal.gnd a b in
  Alcotest.(check int) "mux sel=1" 10 (Fixed.to_int (eval_closed m1));
  Alcotest.(check int) "mux sel=0" 20 (Fixed.to_int (eval_closed m0));
  (* wide select rejected *)
  (match Signal.mux2 (Signal.consti s8 1) a b with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "wide select accepted")

let test_mux_format_covering () =
  (* Branches of different formats: value must be preserved for both. *)
  let a = Signal.constf (Fixed.signed ~width:6 ~frac:2) 3.25 in
  let b = Signal.constf (Fixed.unsigned ~width:10 ~frac:4) 12.0625 in
  let m = Signal.mux2 Signal.vdd a b in
  Alcotest.(check (float 1e-9)) "a preserved" 3.25 (Fixed.to_float (eval_closed m));
  let m = Signal.mux2 Signal.gnd a b in
  Alcotest.(check (float 1e-9)) "b preserved" 12.0625
    (Fixed.to_float (eval_closed m))

let test_registers () =
  let r = Signal.Reg.create clk "r" s8 ~init:(Fixed.of_int s8 5) in
  Alcotest.(check int) "initial" 5 (Fixed.to_int (Signal.Reg.value r));
  Signal.Reg.set_next r (Fixed.of_int s8 9);
  Alcotest.(check int) "next not visible" 5 (Fixed.to_int (Signal.Reg.value r));
  Signal.Reg.commit r;
  Alcotest.(check int) "committed" 9 (Fixed.to_int (Signal.Reg.value r));
  Signal.Reg.commit r;
  Alcotest.(check int) "no staging, no change" 9 (Fixed.to_int (Signal.Reg.value r));
  Signal.Reg.reset r;
  Alcotest.(check int) "reset" 5 (Fixed.to_int (Signal.Reg.value r));
  (* reading through an expression *)
  let e = Signal.(reg_q r +: consti s8 1) in
  Alcotest.(check int) "reg_q read" 6 (Fixed.to_int (eval_closed e))

let test_reg_init_format_mismatch () =
  match Signal.Reg.create clk "bad" s8 ~init:(Fixed.of_int u4 1) with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "mismatched init accepted"

let test_inputs_env () =
  let i = Signal.Input.create "x" s8 in
  let e = Signal.(input i *: consti s8 2) in
  let env = Signal.Env.create () in
  (match Signal.eval env e with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "unbound input evaluated");
  Signal.Env.bind env i (Fixed.of_int s8 21);
  Alcotest.(check int) "bound" 42 (Fixed.to_int (Signal.eval env e));
  Alcotest.(check bool) "is_bound" true (Signal.Env.is_bound env i)

let test_rom () =
  let contents = Array.init 8 (fun i -> Fixed.of_int s8 (i * 3)) in
  let rom = Signal.Rom.create "tbl" s8 contents in
  Alcotest.(check int) "size" 8 (Signal.Rom.size rom);
  let idx = Signal.consti u4 5 in
  Alcotest.(check int) "read" 15 (Fixed.to_int (eval_closed (Signal.rom rom idx)));
  (* modulo wrap *)
  let idx = Signal.consti u4 11 in
  Alcotest.(check int) "wrap" 9 (Fixed.to_int (eval_closed (Signal.rom rom idx)));
  (* signed index rejected *)
  (match Signal.rom rom (Signal.consti s8 1) with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "signed index accepted")

let test_shift_nodes () =
  let v = Signal.consti (Fixed.unsigned ~width:8 ~frac:0) 12 in
  let l = Signal.shift_left v 2 in
  Alcotest.(check (float 1e-9)) "shl" 48.0 (Fixed.to_float (eval_closed l));
  let r = Signal.shift_right v 2 in
  Alcotest.(check (float 1e-9)) "shr" 3.0 (Fixed.to_float (eval_closed r));
  (* the bit-extraction idiom *)
  let bit_i i =
    Signal.resize Fixed.bit_format (Signal.shift_right v i)
  in
  Alcotest.(check bool) "bit2" true (Fixed.is_true (eval_closed (bit_i 2)));
  Alcotest.(check bool) "bit0" false (Fixed.is_true (eval_closed (bit_i 0)));
  ()

let test_dag_analysis () =
  let i1 = Signal.Input.create "a" s8 and i2 = Signal.Input.create "b" s8 in
  let r = Signal.Reg.create clk "reg" s8 in
  let shared = Signal.(input i1 +: reg_q r) in
  let e = Signal.(shared *: shared +: input i2) in
  let deps = Signal.input_deps e in
  Alcotest.(check int) "two input deps" 2 (List.length deps);
  Alcotest.(check int) "one reg read" 1 (List.length (Signal.regs_read e));
  (* node_count counts shared nodes once: inputs(2) + reg_q + add +
     mul + outer add = 6 *)
  Alcotest.(check int) "node count" 6 (Signal.node_count e);
  (* register reads cut the combinational dependency *)
  let reg_only = Signal.(reg_q r +: consti s8 1) in
  Alcotest.(check int) "reg-only has no input deps" 0
    (List.length (Signal.input_deps reg_only))

let test_memo_consistency () =
  (* eval_memo over a shared DAG gives the same result as plain eval *)
  let i = Signal.Input.create "x" s84 in
  let x = Signal.input i in
  let sq = Signal.(x *: x) in
  let e = Signal.(resize s84 (sq +: sq)) in
  let env = Signal.Env.create () in
  Signal.Env.bind env i (fx s84 1.25);
  let memo = Hashtbl.create 8 in
  Alcotest.(check bool) "memo = plain" true
    (Fixed.equal (Signal.eval_memo memo env e) (Signal.eval env e))

let suite =
  [
    Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "operator result formats" `Quick test_operators_formats;
    Alcotest.test_case "arithmetic evaluation" `Quick test_eval_arithmetic;
    Alcotest.test_case "mux" `Quick test_mux;
    Alcotest.test_case "mux format covering" `Quick test_mux_format_covering;
    Alcotest.test_case "registers" `Quick test_registers;
    Alcotest.test_case "register init mismatch" `Quick test_reg_init_format_mismatch;
    Alcotest.test_case "inputs and environments" `Quick test_inputs_env;
    Alcotest.test_case "rom" `Quick test_rom;
    Alcotest.test_case "shift nodes" `Quick test_shift_nodes;
    Alcotest.test_case "dag analysis" `Quick test_dag_analysis;
    Alcotest.test_case "memo consistency" `Quick test_memo_consistency;
  ]
