(* Unit and property tests for the fixed-point substrate. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let s ~w ~f = Fixed.signed ~width:w ~frac:f
let u ~w ~f = Fixed.unsigned ~width:w ~frac:f

let test_format_construction () =
  let f = s ~w:8 ~f:4 in
  check_int "width" 8 f.Fixed.width;
  check_int "frac" 4 f.Fixed.frac;
  check_bool "signed" true (f.Fixed.signedness = Fixed.Signed);
  Alcotest.check_raises "zero width"
    (Ocapi_error.Error
       (Ocapi_error.make Internal ~engine:"fixed" "format: width 0 < 1"))
    (fun () -> ignore (Fixed.signed ~width:0 ~frac:0));
  (match Fixed.format Fixed.Signed ~width:100 ~frac:0 with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "width 100 accepted");
  check_bool "equal_format" true (Fixed.equal_format (s ~w:4 ~f:2) (s ~w:4 ~f:2));
  check_bool "inequal signedness" false
    (Fixed.equal_format (s ~w:4 ~f:2) (u ~w:4 ~f:2))

let test_mantissa_ranges () =
  check_i64 "s8 min" (-128L) (Fixed.min_mantissa (s ~w:8 ~f:0));
  check_i64 "s8 max" 127L (Fixed.max_mantissa (s ~w:8 ~f:0));
  check_i64 "u8 min" 0L (Fixed.min_mantissa (u ~w:8 ~f:0));
  check_i64 "u8 max" 255L (Fixed.max_mantissa (u ~w:8 ~f:0));
  check_i64 "u1 max" 1L (Fixed.max_mantissa Fixed.bit_format)

let test_create_bounds () =
  ignore (Fixed.create (s ~w:4 ~f:0) (-8L));
  ignore (Fixed.create (s ~w:4 ~f:0) 7L);
  (match Fixed.create (s ~w:4 ~f:0) 8L with
  | exception e when Raises.code Overflow e -> ()
  | _ -> Alcotest.fail "8 fits s4?");
  (match Fixed.create (u ~w:4 ~f:0) (-1L) with
  | exception e when Raises.code Overflow e -> ()
  | _ -> Alcotest.fail "-1 fits u4?")

let test_float_roundtrip () =
  let fmt = s ~w:10 ~f:6 in
  let v = Fixed.of_float fmt 1.75 in
  Alcotest.(check (float 1e-9)) "1.75" 1.75 (Fixed.to_float v);
  let v = Fixed.of_float fmt (-0.015625) in
  Alcotest.(check (float 1e-9)) "-1/64" (-0.015625) (Fixed.to_float v);
  (* saturation *)
  let v = Fixed.of_float fmt 100.0 in
  check_i64 "saturated to max" (Fixed.max_mantissa fmt) (Fixed.mantissa v);
  let v = Fixed.of_float fmt (-100.0) in
  check_i64 "saturated to min" (Fixed.min_mantissa fmt) (Fixed.mantissa v)

let test_of_float_rounding () =
  let fmt = s ~w:8 ~f:2 in
  (* 0.3 * 4 = 1.2 -> nearest 1 *)
  check_i64 "round nearest" 1L (Fixed.mantissa (Fixed.of_float fmt 0.3));
  (* 0.375 * 4 = 1.5 -> half away = 2; half-even = 2 (1 odd) *)
  check_i64 "half up" 2L
    (Fixed.mantissa (Fixed.of_float ~round:Fixed.Round_nearest fmt 0.375));
  check_i64 "truncate" 1L
    (Fixed.mantissa (Fixed.of_float ~round:Fixed.Truncate fmt 0.49));
  (* 0.625 * 4 = 2.5 -> even = 2 *)
  check_i64 "half even" 2L
    (Fixed.mantissa (Fixed.of_float ~round:Fixed.Round_even fmt 0.625))

let test_int_conversions () =
  let fmt = s ~w:10 ~f:3 in
  check_int "of/to int" 12 (Fixed.to_int (Fixed.of_int fmt 12));
  check_int "negative" (-12) (Fixed.to_int (Fixed.of_int fmt (-12)));
  (* to_int truncates toward zero *)
  let v = Fixed.of_float fmt (-1.5) in
  check_int "trunc toward zero" (-1) (Fixed.to_int v);
  let v = Fixed.of_float fmt 1.875 in
  check_int "trunc pos" 1 (Fixed.to_int v)

let test_add_sub_exact () =
  let a = Fixed.of_float (s ~w:6 ~f:2) 3.25 in
  let b = Fixed.of_float (s ~w:8 ~f:4) (-1.0625) in
  let sum = Fixed.add a b in
  Alcotest.(check (float 1e-9)) "sum" 2.1875 (Fixed.to_float sum);
  let diff = Fixed.sub a b in
  Alcotest.(check (float 1e-9)) "diff" 4.3125 (Fixed.to_float diff);
  (* result formats *)
  check_int "sum frac" 4 (Fixed.fmt sum).Fixed.frac

let test_mul_exact () =
  let a = Fixed.of_float (s ~w:6 ~f:2) (-2.75) in
  let b = Fixed.of_float (u ~w:5 ~f:3) 1.625 in
  let p = Fixed.mul a b in
  Alcotest.(check (float 1e-9)) "product" (-4.46875) (Fixed.to_float p);
  check_int "product frac" 5 (Fixed.fmt p).Fixed.frac;
  check_int "product width" 11 (Fixed.fmt p).Fixed.width

let test_neg_abs () =
  let a = Fixed.of_float (s ~w:6 ~f:2) (-7.75) in
  Alcotest.(check (float 1e-9)) "neg" 7.75 (Fixed.to_float (Fixed.neg a));
  Alcotest.(check (float 1e-9)) "abs" 7.75 (Fixed.to_float (Fixed.abs a));
  (* negating the minimum needs the widened format *)
  let m = Fixed.create (s ~w:4 ~f:0) (-8L) in
  check_i64 "neg min" 8L (Fixed.mantissa (Fixed.neg m))

let test_compare () =
  let a = Fixed.of_float (s ~w:8 ~f:4) 1.5 in
  let b = Fixed.of_float (u ~w:10 ~f:2) 1.5 in
  check_int "equal across formats" 0 (Fixed.compare_value a b);
  let c = Fixed.of_float (s ~w:8 ~f:4) (-1.5) in
  check_bool "lt" true (Fixed.compare_value c a < 0);
  check_bool "fixed eq op" true (Fixed.is_true (Fixed.eq a b));
  check_bool "fixed lt op" true (Fixed.is_true (Fixed.lt c a));
  check_bool "le refl" true (Fixed.is_true (Fixed.le a b));
  check_bool "gt" true (Fixed.is_true (Fixed.gt a c));
  check_bool "ge" true (Fixed.is_true (Fixed.ge a b));
  check_bool "ne" false (Fixed.is_true (Fixed.ne a b))

let test_logical () =
  let a = Fixed.of_int (u ~w:8 ~f:0) 0b1100 in
  let b = Fixed.of_int (u ~w:8 ~f:0) 0b1010 in
  check_i64 "and" 0b1000L (Fixed.mantissa (Fixed.logand a b));
  check_i64 "or" 0b1110L (Fixed.mantissa (Fixed.logor a b));
  check_i64 "xor" 0b0110L (Fixed.mantissa (Fixed.logxor a b));
  check_i64 "not" 0b11110011L (Fixed.mantissa (Fixed.lognot a))

let test_shifts () =
  let a = Fixed.of_int (u ~w:8 ~f:0) 5 in
  let l = Fixed.shift_left a 2 in
  Alcotest.(check (float 1e-9)) "shl value" 20.0 (Fixed.to_float l);
  check_i64 "shl mantissa unchanged" 5L (Fixed.mantissa l);
  check_int "shl frac" (-2) (Fixed.fmt l).Fixed.frac;
  let r = Fixed.shift_right a 2 in
  Alcotest.(check (float 1e-9)) "shr value" 1.25 (Fixed.to_float r);
  check_int "shr frac" 2 (Fixed.fmt r).Fixed.frac

let test_resize_truncate_wrap () =
  let v = Fixed.of_float (s ~w:10 ~f:4) 5.8125 in
  (* to s6.1: 5.8125 * 2 = 11.625 -> floor 11 -> 5.5; fits s6 *)
  let r = Fixed.resize (s ~w:6 ~f:1) v in
  Alcotest.(check (float 1e-9)) "trunc" 5.5 (Fixed.to_float r);
  (* wrap: 100 into s6.0 -> 100 - 128 = -28 *)
  let v = Fixed.of_int (s ~w:10 ~f:0) 100 in
  check_i64 "wrap" (-28L) (Fixed.mantissa (Fixed.resize (s ~w:6 ~f:0) v))

let test_resize_saturate () =
  let v = Fixed.of_int (s ~w:10 ~f:0) 100 in
  check_i64 "sat high" 31L
    (Fixed.mantissa (Fixed.resize ~overflow:Fixed.Saturate (s ~w:6 ~f:0) v));
  let v = Fixed.of_int (s ~w:10 ~f:0) (-100) in
  check_i64 "sat low" (-32L)
    (Fixed.mantissa (Fixed.resize ~overflow:Fixed.Saturate (s ~w:6 ~f:0) v));
  (* unsigned clamps negatives to zero *)
  check_i64 "sat unsigned" 0L
    (Fixed.mantissa (Fixed.resize ~overflow:Fixed.Saturate (u ~w:6 ~f:0) v))

let test_resize_rounding_modes () =
  let v = Fixed.create (s ~w:10 ~f:4) 0b10110L (* 1.375 *) in
  let f = s ~w:8 ~f:1 in
  (* 1.375 * 2 = 2.75: floor 2, nearest 3, even: rem>half -> 3 *)
  check_i64 "truncate" 2L (Fixed.mantissa (Fixed.resize ~round:Fixed.Truncate f v));
  check_i64 "nearest" 3L
    (Fixed.mantissa (Fixed.resize ~round:Fixed.Round_nearest f v));
  check_i64 "even >half" 3L
    (Fixed.mantissa (Fixed.resize ~round:Fixed.Round_even f v));
  (* exactly half: 1.25 * 2 = 2.5 -> nearest 3, even 2 *)
  let v = Fixed.of_float (s ~w:10 ~f:4) 1.25 in
  check_i64 "nearest half" 3L
    (Fixed.mantissa (Fixed.resize ~round:Fixed.Round_nearest f v));
  check_i64 "even half" 2L
    (Fixed.mantissa (Fixed.resize ~round:Fixed.Round_even f v));
  (* negative truncation rounds toward -inf *)
  let v = Fixed.of_float (s ~w:10 ~f:4) (-1.0625) in
  check_i64 "trunc negative" (-3L)
    (Fixed.mantissa (Fixed.resize ~round:Fixed.Truncate f v))

let test_bits_roundtrip () =
  let v = Fixed.create (s ~w:6 ~f:2) (-13L) in
  let bits = Fixed.to_bits v in
  check_int "bit length" 6 (String.length bits);
  Alcotest.(check string) "pattern" "110011" bits;
  check_bool "roundtrip" true (Fixed.equal v (Fixed.of_bits (s ~w:6 ~f:2) bits))

let test_bool_bits () =
  check_bool "of_bool true" true (Fixed.is_true (Fixed.of_bool true));
  check_bool "of_bool false" false (Fixed.is_true (Fixed.of_bool false));
  check_i64 "one" 16L (Fixed.mantissa (Fixed.one (s ~w:8 ~f:4)));
  check_i64 "zero" 0L (Fixed.mantissa (Fixed.zero (s ~w:8 ~f:4)))

(* [to_string] and [format_to_string], and the printers that print
   them, render byte for byte the [Format] text ["%g<%c%d.%d>"] of the
   value and its format, on signed and unsigned formats with negative,
   zero and positive [frac], at the extreme, small and seeded random
   mantissas. *)
let test_strings_match_format () =
  let rng = Random.State.make [| 17 |] in
  let format_text (f : Fixed.format) =
    Format.asprintf "<%c%d.%d>"
      (match f.signedness with Fixed.Signed -> 's' | Fixed.Unsigned -> 'u')
      f.width f.frac
  in
  List.iter
    (fun (signedness, width, frac) ->
      let f = Fixed.format signedness ~width ~frac in
      Alcotest.(check string) "format_to_string" (format_text f) (Fixed.format_to_string f);
      Alcotest.(check string) "pp_format" (format_text f)
        (Format.asprintf "%a" Fixed.pp_format f);
      let lo = Fixed.min_mantissa f and hi = Fixed.max_mantissa f in
      let random () =
        Int64.add lo (Random.State.int64 rng (Int64.succ (Int64.sub hi lo)))
      in
      List.iter
        (fun m ->
          if m >= lo && m <= hi then begin
            let v = Fixed.create f m in
            let text = Format.asprintf "%g%s" (Fixed.to_float v) (format_text f) in
            Alcotest.(check string) (Printf.sprintf "to_string %Ld" m) text (Fixed.to_string v);
            Alcotest.(check string) (Printf.sprintf "pp %Ld" m) text
              (Format.asprintf "%a" Fixed.pp v)
          end)
        ([ lo; hi; 0L; 1L; -1L ] @ List.init 20 (fun _ -> random ())))
    [
      (Fixed.Signed, 8, 0); (Fixed.Signed, 12, 5); (Fixed.Signed, 6, -3);
      (Fixed.Signed, 62, 30); (Fixed.Signed, 1, 0); (Fixed.Unsigned, 4, 0);
      (Fixed.Unsigned, 16, 9); (Fixed.Unsigned, 10, -4); (Fixed.Unsigned, 61, 70);
    ]

(* --- properties ---------------------------------------------------------- *)

let prop name count arb f = QCheck.Test.make ~name ~count arb f

let properties =
  [
    prop "add commutative" 500 Gen.pair_arb (fun (a, b) ->
        Fixed.compare_value (Fixed.add a b) (Fixed.add b a) = 0);
    prop "add is exact vs float" 500 Gen.pair_arb (fun (a, b) ->
        abs_float
          (Fixed.to_float (Fixed.add a b) -. (Fixed.to_float a +. Fixed.to_float b))
        < 1e-9);
    prop "mul is exact vs float" 500 Gen.pair_arb (fun (a, b) ->
        abs_float
          (Fixed.to_float (Fixed.mul a b) -. (Fixed.to_float a *. Fixed.to_float b))
        < 1e-9);
    prop "sub = add neg" 500 Gen.pair_arb (fun (a, b) ->
        Fixed.compare_value (Fixed.sub a b) (Fixed.add a (Fixed.neg b)) = 0);
    prop "abs non-negative" 500 Gen.value_arb (fun v ->
        Fixed.compare_value (Fixed.abs v) (Fixed.zero (Fixed.fmt v)) >= 0);
    prop "resize to same format is identity" 500 Gen.value_arb (fun v ->
        Fixed.equal v (Fixed.resize (Fixed.fmt v) v));
    prop "saturating resize stays in range" 500
      (QCheck.pair Gen.value_arb (QCheck.make Gen.format_gen))
      (fun (v, fmt) ->
        let r = Fixed.resize ~overflow:Fixed.Saturate fmt v in
        Fixed.mantissa r >= Fixed.min_mantissa fmt
        && Fixed.mantissa r <= Fixed.max_mantissa fmt);
    prop "widening resize preserves value" 500 Gen.value_arb (fun v ->
        let f = Fixed.fmt v in
        match
          Fixed.format f.Fixed.signedness ~width:(f.Fixed.width + 4)
            ~frac:(f.Fixed.frac + 2)
        with
        | wider ->
          Fixed.compare_value v (Fixed.resize wider v) = 0
        | exception e when Raises.code Internal e -> true);
    prop "to_bits/of_bits roundtrip" 500 Gen.value_arb (fun v ->
        Fixed.equal v (Fixed.of_bits (Fixed.fmt v) (Fixed.to_bits v)));
    prop "comparisons agree with float" 500 Gen.pair_arb (fun (a, b) ->
        let ff = compare (Fixed.to_float a) (Fixed.to_float b) in
        let xx = Fixed.compare_value a b in
        (ff = 0) = (xx = 0) && (ff < 0) = (xx < 0));
    prop "logical ops idempotent" 300 Gen.value_arb (fun v ->
        Fixed.compare_value (Fixed.logand v v) v = 0
        && Fixed.compare_value (Fixed.logor v v) v = 0);
    prop "lognot involutive" 300 Gen.value_arb (fun v ->
        Fixed.equal (Fixed.lognot (Fixed.lognot v)) v);
    prop "shift roundtrip" 300 Gen.value_arb (fun v ->
        Fixed.compare_value (Fixed.shift_right (Fixed.shift_left v 3) 3) v = 0);
  ]

let suite =
  List.map (fun t -> QCheck_alcotest.to_alcotest t) properties
  @ [
      Alcotest.test_case "format construction" `Quick test_format_construction;
      Alcotest.test_case "mantissa ranges" `Quick test_mantissa_ranges;
      Alcotest.test_case "create bounds" `Quick test_create_bounds;
      Alcotest.test_case "float roundtrip" `Quick test_float_roundtrip;
      Alcotest.test_case "of_float rounding" `Quick test_of_float_rounding;
      Alcotest.test_case "int conversions" `Quick test_int_conversions;
      Alcotest.test_case "add/sub exact" `Quick test_add_sub_exact;
      Alcotest.test_case "mul exact" `Quick test_mul_exact;
      Alcotest.test_case "neg/abs" `Quick test_neg_abs;
      Alcotest.test_case "comparisons" `Quick test_compare;
      Alcotest.test_case "logical ops" `Quick test_logical;
      Alcotest.test_case "shifts" `Quick test_shifts;
      Alcotest.test_case "resize truncate/wrap" `Quick test_resize_truncate_wrap;
      Alcotest.test_case "resize saturate" `Quick test_resize_saturate;
      Alcotest.test_case "resize rounding modes" `Quick test_resize_rounding_modes;
      Alcotest.test_case "bit strings" `Quick test_bits_roundtrip;
      Alcotest.test_case "bool and constants" `Quick test_bool_bits;
      Alcotest.test_case "strings = Format rendering" `Quick test_strings_match_format;
    ]
