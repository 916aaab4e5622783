(* Differential tests: the naive bit-vector evaluator must agree with
   the quantized evaluator on every operation (it is both the C3 bench
   comparator and an independent oracle for Fixed). *)

let via_bv2 op_bv a b = Bitvector.to_fixed (op_bv (Bitvector.of_fixed a) (Bitvector.of_fixed b))
let via_bv1 op_bv a = Bitvector.to_fixed (op_bv (Bitvector.of_fixed a))

let prop name count arb f = QCheck.Test.make ~name ~count arb f

let binop_agrees name fixed_op bv_op =
  prop ("bv " ^ name) 500 Gen.pair_arb (fun (a, b) ->
      match fixed_op a b with
      | exception e when Raises.code Internal e -> true
      | expect -> Fixed.equal expect (via_bv2 bv_op a b))

let properties =
  [
    binop_agrees "add" Fixed.add Bitvector.add;
    binop_agrees "sub" Fixed.sub Bitvector.sub;
    binop_agrees "mul" Fixed.mul Bitvector.mul;
    binop_agrees "logand" Fixed.logand Bitvector.logand;
    binop_agrees "logor" Fixed.logor Bitvector.logor;
    binop_agrees "logxor" Fixed.logxor Bitvector.logxor;
    binop_agrees "eq" Fixed.eq Bitvector.eq;
    binop_agrees "lt" Fixed.lt Bitvector.lt;
    prop "bv neg" 500 Gen.value_arb (fun v ->
        Fixed.equal (Fixed.neg v) (via_bv1 Bitvector.neg v));
    prop "bv lognot" 500 Gen.value_arb (fun v ->
        Fixed.equal (Fixed.lognot v) (via_bv1 Bitvector.lognot v));
    prop "bv compare" 500 Gen.pair_arb (fun (a, b) ->
        compare (Fixed.compare_value a b) 0
        = compare (Bitvector.compare_value (Bitvector.of_fixed a) (Bitvector.of_fixed b)) 0);
    prop "bv roundtrip" 500 Gen.value_arb (fun v ->
        Fixed.equal v (Bitvector.to_fixed (Bitvector.of_fixed v)));
    prop "bv resize" 1000
      (QCheck.triple Gen.value_arb
         (QCheck.make Gen.format_gen)
         (QCheck.make (QCheck.Gen.pair Gen.rounding_gen Gen.overflow_gen)))
      (fun (v, fmt, (round, overflow)) ->
        match Fixed.resize ~round ~overflow fmt v with
        | exception _ -> true
        | expect ->
          Fixed.equal expect
            (Bitvector.to_fixed
               (Bitvector.resize ~round ~overflow fmt (Bitvector.of_fixed v))));
  ]

let test_bit_access () =
  let v = Fixed.create (Fixed.unsigned ~width:5 ~frac:0) 0b10110L in
  let bv = Bitvector.of_fixed v in
  Alcotest.(check int) "width" 5 (Bitvector.width bv);
  Alcotest.(check bool) "bit0" false (Bitvector.bit bv 0);
  Alcotest.(check bool) "bit1" true (Bitvector.bit bv 1);
  Alcotest.(check bool) "bit4" true (Bitvector.bit bv 4)

let suite =
  List.map QCheck_alcotest.to_alcotest properties
  @ [ Alcotest.test_case "bit access" `Quick test_bit_access ]
