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
  (* A plan over a shared DAG gives each root the value plain eval gives,
     whichever root of the memo is evaluated first. *)
  let i = Signal.Input.create "x" s84 in
  let x = Signal.input i in
  let sq = Signal.(x *: x) in
  let e = Signal.(resize s84 (sq +: sq)) in
  let env = Signal.Env.create () in
  Signal.Env.bind env i (fx s84 1.25);
  let plan = Signal.Plan.create [ e; sq ] in
  Alcotest.(check int) "shared nodes numbered once" 4 (Signal.Plan.size plan);
  List.iter
    (fun order ->
      let m = Signal.Plan.memo plan env in
      List.iter
        (fun k ->
          let root = if k = 0 then e else sq in
          Alcotest.(check bool) "plan = plain" true
            (Fixed.equal (Signal.Plan.eval m k) (Signal.eval env root)))
        order)
    [ [ 0; 1 ]; [ 1; 0 ] ]

(* --- plans against the recursive evaluator ------------------------------- *)

(* The evaluator plans replaced: the expression recursion, with one
   table of computed nodes shared by a firing's roots. *)
let recursive_eval memo env e =
  let rec go n =
    match Hashtbl.find_opt memo (Signal.id n) with
    | Some v -> v
    | None ->
      let v = compute n in
      Hashtbl.add memo (Signal.id n) v;
      v
  and compute n =
    match Signal.op n with
    | Signal.Const v -> v
    | Signal.Input_read i -> begin
      match Signal.Env.find env i with
      | Some v -> v
      | None ->
        Ocapi_error.fail Ocapi_error.Internal ~engine:"signal"
          "eval: input %s has no token" (Signal.Input.name i)
    end
    | Signal.Reg_read r -> Signal.Reg.value r
    | Signal.Add (a, b) -> Fixed.add (go a) (go b)
    | Signal.Sub (a, b) -> Fixed.sub (go a) (go b)
    | Signal.Mul (a, b) -> Fixed.mul (go a) (go b)
    | Signal.Neg a -> Fixed.neg (go a)
    | Signal.Abs a -> Fixed.abs (go a)
    | Signal.And (a, b) -> Fixed.logand (go a) (go b)
    | Signal.Or (a, b) -> Fixed.logor (go a) (go b)
    | Signal.Xor (a, b) -> Fixed.logxor (go a) (go b)
    | Signal.Not a -> Fixed.lognot (go a)
    | Signal.Eq (a, b) -> Fixed.eq (go a) (go b)
    | Signal.Lt (a, b) -> Fixed.lt (go a) (go b)
    | Signal.Le (a, b) -> Fixed.le (go a) (go b)
    | Signal.Mux (s, a, b) ->
      let sv = go s and av = go a and bv = go b in
      let v = if Fixed.is_true sv then av else bv in
      Fixed.resize ~round:Fixed.Truncate ~overflow:Fixed.Wrap (Signal.fmt n) v
    | Signal.Resize (round, overflow, a) ->
      Fixed.resize ~round ~overflow (Signal.fmt n) (go a)
    | Signal.Rom_read (r, idx) -> Signal.Rom.get r (Fixed.to_int (go idx))
    | Signal.Shift_left (a, k) ->
      Fixed.resize (Signal.fmt n) (Fixed.shift_left (go a) k)
    | Signal.Shift_right (a, k) ->
      Fixed.resize (Signal.fmt n) (Fixed.shift_right (go a) k)
  in
  go e

(* The value, or the first library error's code and message. *)
let outcome f =
  match f () with
  | v -> Ok v
  | exception Ocapi_error.Error d ->
    Error (d.Ocapi_error.e_code, d.Ocapi_error.e_message)

let same_outcome same a b =
  match a, b with
  | Ok x, Ok y -> same x y
  | Error x, Error y -> x = y
  | Ok _, Error _ | Error _, Ok _ -> false

let same_values = List.equal Fixed.equal

let dag_fmt = Fixed.signed ~width:6 ~frac:2

type dag = {
  d_inputs : Signal.Input.t array;
  d_regs : Signal.Reg.t array;
  d_pool : Signal.t array;  (* every node built, newest first *)
  d_roots : Signal.t list;
  d_rand : Random.State.t;
}

(* A random DAG over three inputs and two registers: base expressions
   from [Gen.expr_gen], then nodes whose operands are drawn from all
   built so far, so subterms are shared.  Some nodes read one of two
   inputs no environment binds; some shift their operand 70 bits and
   resize it back, which raises on a nonzero operand.  The registers
   hold random values. *)
let random_dag seed =
  let rand = Random.State.make [| seed; 0x91a7 |] in
  let inputs =
    Array.init 3 (fun i -> Signal.Input.create (Printf.sprintf "x%d" i) dag_fmt)
  in
  let ghosts =
    Array.init 2 (fun i -> Signal.Input.create (Printf.sprintf "ghost%d" i) dag_fmt)
  in
  let regs =
    Array.init 2 (fun i ->
        Signal.Reg.create clk (Printf.sprintf "dag%d_r%d" seed i) dag_fmt)
  in
  let value () = QCheck.Gen.generate1 ~rand (Gen.value_of_format_gen dag_fmt) in
  Array.iter (fun r -> Signal.Reg.set_value r (value ())) regs;
  let pool =
    ref (List.init (1 + Random.State.int rand 3) (fun _ ->
             QCheck.Gen.generate1 ~rand (Gen.expr_gen ~inputs ~regs 3)))
  in
  let pick () = List.nth !pool (Random.State.int rand (List.length !pool)) in
  for _ = 1 to Random.State.int rand 14 do
    let a = pick () in
    let b = pick () in
    let node () =
      match Random.State.int rand 10 with
      | 0 -> Signal.add a b
      | 1 -> Signal.sub a b
      | 2 -> Signal.xor_ a b
      | 3 -> Signal.mux2 (Signal.lt a b) a b
      | 4 -> Signal.resize dag_fmt (Signal.mul a b)
      | 5 -> Signal.resize dag_fmt a
      | 6 -> Signal.neg a
      | 7 -> Signal.and_ a (Signal.input ghosts.(Random.State.int rand 2))
      | _ -> Signal.resize (Signal.fmt a) (Signal.shift_left a 70)
    in
    (* A node whose format would pass [Fixed.max_width] is not built. *)
    match node () with
    | n -> pool := n :: !pool
    | exception e when Raises.code Internal e -> ()
  done;
  let roots = List.init (1 + Random.State.int rand 4) (fun _ -> pick ()) in
  { d_inputs = inputs; d_regs = regs; d_pool = Array.of_list !pool; d_roots = roots;
    d_rand = rand }

(* Binds each of [d]'s inputs with probability [p]. *)
let random_env ?(p = 1.0) d =
  let env = Signal.Env.create () in
  Array.iter
    (fun i ->
      if Random.State.float d.d_rand 1.0 < p then
        Signal.Env.bind env i
          (QCheck.Gen.generate1 ~rand:d.d_rand (Gen.value_of_format_gen dag_fmt)))
    d.d_inputs;
  env

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000)

(* A plan evaluates any sequence of its roots, one memo per firing, as
   the recursion with a shared table does: the same values, or the same
   first error. *)
let plan_property =
  QCheck.Test.make ~name:"plan = recursive evaluation (random DAGs)" ~count:400
    seed_arb (fun seed ->
      let d = random_dag seed in
      let env = random_env d in
      let roots = Array.of_list d.d_roots in
      let order =
        List.init (1 + Random.State.int d.d_rand 5) (fun _ ->
            Random.State.int d.d_rand (Array.length roots))
      in
      let memo = Hashtbl.create 64 in
      let expected =
        outcome (fun () -> List.map (fun k -> recursive_eval memo env roots.(k)) order)
      in
      let m = Signal.Plan.memo (Signal.Plan.create d.d_roots) env in
      let got = outcome (fun () -> List.map (Signal.Plan.eval m) order) in
      same_outcome same_values expected got)

(* The scheduler's partial firing: one memo per cycle takes each token
   as it arrives, and evaluates the roots whose inputs have all
   arrived.  Here a random subset of the bound inputs arrives first,
   the ready roots are evaluated, then the rest arrives and every root
   is evaluated.  Readiness is the recursion's "every input under the
   root is bound", and the values, or the first error, are the
   recursion's with one table shared by both passes. *)
let partial_firing_property =
  QCheck.Test.make ~name:"partial firing = recursive evaluation"
    ~count:400 seed_arb (fun seed ->
      let d = random_dag seed in
      let env = random_env d in
      let early =
        Array.map (fun _ -> Random.State.float d.d_rand 1.0 < 0.6) d.d_inputs
      in
      let arrived_early i =
        let rec go j =
          j < Array.length d.d_inputs
          && ((Signal.Input.id d.d_inputs.(j) = Signal.Input.id i && early.(j))
             || go (j + 1))
        in
        go 0
      in
      let expected =
        outcome (fun () ->
            let memo = Hashtbl.create 64 in
            let ready =
              List.map
                (fun e -> List.for_all arrived_early (Signal.input_deps e))
                d.d_roots
            in
            let first =
              List.concat
                (List.map2
                   (fun e r -> if r then [ recursive_eval memo env e ] else [])
                   d.d_roots ready)
            in
            (ready, first, List.map (recursive_eval memo env) d.d_roots))
      in
      let plan = Signal.Plan.create d.d_roots in
      let ks = List.init (List.length d.d_roots) Fun.id in
      let m = Signal.Plan.start plan in
      let arrive pass =
        Array.iteri
          (fun j i ->
            if early.(j) = pass then
              let reads =
                Signal.Plan.read_nodes plan (fun x ->
                    Signal.Input.id x = Signal.Input.id i)
              in
              Option.iter (Signal.Plan.seed m reads) (Signal.Env.find env i))
          d.d_inputs
      in
      let got =
        outcome (fun () ->
            arrive true;
            let ready = List.map (Signal.Plan.ready m) ks in
            let first =
              List.map (Signal.Plan.eval m) (List.filter (Signal.Plan.ready m) ks)
            in
            arrive false;
            (ready, first, List.map (Signal.Plan.eval m) ks))
      in
      same_outcome
        (fun (r, f, a) (r', f', a') -> r = r' && same_values f f' && same_values a a')
        expected got)

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
    QCheck_alcotest.to_alcotest plan_property;
    QCheck_alcotest.to_alcotest partial_firing_property;
  ]
