(* Differential tests: every word-level module generator is bit-exact
   against the corresponding Fixed operation (the property the
   generated-test-bench verification flow relies on). *)

let rng = Random.State.make [| 4242 |]

let random_format () =
  let signedness = if Random.State.bool rng then Fixed.Signed else Fixed.Unsigned in
  let width = 1 + Random.State.int rng 12 in
  let frac = Random.State.int rng 8 - 3 in
  Fixed.format signedness ~width ~frac

let random_value fmt =
  let lo = Fixed.min_mantissa fmt and hi = Fixed.max_mantissa fmt in
  let range = Int64.add (Int64.sub hi lo) 1L in
  Fixed.create fmt (Int64.add lo (Random.State.int64 rng range))

let run_binop wg_op a b =
  let fa = Fixed.fmt a and fb = Fixed.fmt b in
  let nl = Netlist.create "t" in
  let ba = Netlist.input_bus nl "a" fa.Fixed.width in
  let bb = Netlist.input_bus nl "b" fb.Fixed.width in
  let out = wg_op nl ~fa ~fb ba bb in
  Netlist.output_bus nl "out" out;
  let sim = Netlist.Sim.create nl in
  Netlist.Sim.set_input sim "a" (Fixed.mantissa a);
  Netlist.Sim.set_input sim "b" (Fixed.mantissa b);
  Netlist.Sim.settle sim;
  sim

let check_binop name fixed_op wg_op iterations =
  for _ = 1 to iterations do
    let a = random_value (random_format ()) in
    let b = random_value (random_format ()) in
    match fixed_op a b with
    | exception e when Raises.code Internal e -> ()
    | expect ->
      let sim = run_binop wg_op a b in
      let signed = (Fixed.fmt expect).Fixed.signedness = Fixed.Signed in
      let got = Netlist.Sim.get_output sim ~signed "out" in
      if got <> Fixed.mantissa expect then
        Alcotest.failf "%s: %s op %s expect %Ld got %Ld" name
          (Fixed.to_string a) (Fixed.to_string b) (Fixed.mantissa expect) got
  done

let check_cmp name fixed_op wg_op iterations =
  for _ = 1 to iterations do
    let a = random_value (random_format ()) in
    let b = random_value (random_format ()) in
    let expect = Fixed.mantissa (fixed_op a b) in
    let sim = run_binop (fun nl ~fa ~fb x y -> [| wg_op nl ~fa ~fb x y |]) a b in
    let got = Netlist.Sim.get_output sim ~signed:false "out" in
    if got <> expect then
      Alcotest.failf "%s: %s vs %s expect %Ld got %Ld" name (Fixed.to_string a)
        (Fixed.to_string b) expect got
  done

let check_unop name fixed_op wg_op iterations =
  for _ = 1 to iterations do
    let a = random_value (random_format ()) in
    let fa = Fixed.fmt a in
    let expect = fixed_op a in
    let nl = Netlist.create "t" in
    let ba = Netlist.input_bus nl "a" fa.Fixed.width in
    Netlist.output_bus nl "out" (wg_op nl ~fa ba);
    let sim = Netlist.Sim.create nl in
    Netlist.Sim.set_input sim "a" (Fixed.mantissa a);
    Netlist.Sim.settle sim;
    let signed = (Fixed.fmt expect).Fixed.signedness = Fixed.Signed in
    let got = Netlist.Sim.get_output sim ~signed "out" in
    if got <> Fixed.mantissa expect then
      Alcotest.failf "%s: %s expect %Ld got %Ld" name (Fixed.to_string a)
        (Fixed.mantissa expect) got
  done

let test_add () = check_binop "add" Fixed.add Wordgen.add 300
let test_sub () = check_binop "sub" Fixed.sub Wordgen.sub 300
let test_mul () = check_binop "mul" Fixed.mul Wordgen.mul 200

let test_logic () =
  check_binop "and" Fixed.logand
    (fun nl ~fa ~fb a b -> Wordgen.logic_op nl Netlist.And ~fa ~fb a b)
    200;
  check_binop "or" Fixed.logor
    (fun nl ~fa ~fb a b -> Wordgen.logic_op nl Netlist.Or ~fa ~fb a b)
    200;
  check_binop "xor" Fixed.logxor
    (fun nl ~fa ~fb a b -> Wordgen.logic_op nl Netlist.Xor ~fa ~fb a b)
    200

let test_cmp () =
  check_cmp "eq" Fixed.eq Wordgen.eq 200;
  check_cmp "lt" Fixed.lt Wordgen.lt 200;
  check_cmp "le" Fixed.le Wordgen.le 200

let test_neg_abs () =
  check_unop "neg" Fixed.neg Wordgen.neg 200;
  check_unop "abs" Fixed.abs Wordgen.abs_ 200

let test_resize () =
  for _ = 1 to 1500 do
    let v = random_value (random_format ()) in
    let src = Fixed.fmt v in
    let dst = random_format () in
    let round =
      match Random.State.int rng 3 with
      | 0 -> Fixed.Truncate
      | 1 -> Fixed.Round_nearest
      | _ -> Fixed.Round_even
    in
    let overflow = if Random.State.bool rng then Fixed.Wrap else Fixed.Saturate in
    match Fixed.resize ~round ~overflow dst v with
    | exception _ -> ()
    | expect -> (
      let nl = Netlist.create "t" in
      let ba = Netlist.input_bus nl "a" src.Fixed.width in
      match Wordgen.resize nl ~round ~overflow ~src ~dst ba with
      | exception e when Raises.code Internal e -> ()
      | out ->
        Netlist.output_bus nl "out" out;
        let sim = Netlist.Sim.create nl in
        Netlist.Sim.set_input sim "a" (Fixed.mantissa v);
        Netlist.Sim.settle sim;
        let signed = dst.Fixed.signedness = Fixed.Signed in
        let got = Netlist.Sim.get_output sim ~signed "out" in
        if got <> Fixed.mantissa expect then
          Alcotest.failf "resize %s %s->%s expect %Ld got %Ld"
            (Fixed.to_string v)
            (Fixed.format_to_string src)
            (Fixed.format_to_string dst)
            (Fixed.mantissa expect) got)
  done

let test_mux2 () =
  for _ = 1 to 200 do
    let a = random_value (random_format ()) in
    let b = random_value (random_format ()) in
    let fa = Fixed.fmt a and fb = Fixed.fmt b in
    let fr = Fixed.logic_format fa fb in
    let sel = Random.State.bool rng in
    let nl = Netlist.create "t" in
    let ba = Netlist.input_bus nl "a" fa.Fixed.width in
    let bb = Netlist.input_bus nl "b" fb.Fixed.width in
    let bs = Netlist.input_bus nl "s" 1 in
    Netlist.output_bus nl "out" (Wordgen.mux2 nl ~fa ~fb ~fr bs.(0) ba bb);
    let sim = Netlist.Sim.create nl in
    Netlist.Sim.set_input sim "a" (Fixed.mantissa a);
    Netlist.Sim.set_input sim "b" (Fixed.mantissa b);
    Netlist.Sim.set_input sim "s" (if sel then 1L else 0L);
    Netlist.Sim.settle sim;
    let expect =
      Fixed.resize ~round:Fixed.Truncate ~overflow:Fixed.Wrap fr
        (if sel then a else b)
    in
    let signed = fr.Fixed.signedness = Fixed.Signed in
    let got = Netlist.Sim.get_output sim ~signed "out" in
    if got <> Fixed.mantissa expect then Alcotest.fail "mux2 mismatch"
  done

let test_select_one_hot () =
  (* AND-OR selection: exactly the selected bus, zero when none. *)
  let nl = Netlist.create "sel" in
  let s0 = Netlist.input_bus nl "s0" 1 and s1 = Netlist.input_bus nl "s1" 1 in
  let a = Netlist.input_bus nl "a" 4 and b = Netlist.input_bus nl "b" 4 in
  Netlist.output_bus nl "o"
    (Wordgen.select nl [ (s0.(0), a); (s1.(0), b) ] ~width:4);
  let sim = Netlist.Sim.create nl in
  Netlist.Sim.set_input sim "a" 5L;
  Netlist.Sim.set_input sim "b" 10L;
  Netlist.Sim.set_input sim "s0" 1L;
  Netlist.Sim.set_input sim "s1" 0L;
  Netlist.Sim.settle sim;
  Alcotest.(check int64) "selects a" 5L (Netlist.Sim.get_output sim ~signed:false "o");
  Netlist.Sim.set_input sim "s0" 0L;
  Netlist.Sim.set_input sim "s1" 1L;
  Netlist.Sim.settle sim;
  Alcotest.(check int64) "selects b" 10L (Netlist.Sim.get_output sim ~signed:false "o");
  Netlist.Sim.set_input sim "s1" 0L;
  Netlist.Sim.settle sim;
  Alcotest.(check int64) "none -> zero" 0L
    (Netlist.Sim.get_output sim ~signed:false "o")

let suite =
  [
    Alcotest.test_case "add" `Quick test_add;
    Alcotest.test_case "sub" `Quick test_sub;
    Alcotest.test_case "mul" `Quick test_mul;
    Alcotest.test_case "logic ops" `Quick test_logic;
    Alcotest.test_case "comparisons" `Quick test_cmp;
    Alcotest.test_case "neg/abs" `Quick test_neg_abs;
    Alcotest.test_case "resize (all modes)" `Quick test_resize;
    Alcotest.test_case "mux2" `Quick test_mux2;
    Alcotest.test_case "one-hot select" `Quick test_select_one_hot;
  ]
