(* Tests for the gallery designs: the RS(15,11) Reed–Solomon
   encoder/decoder pair and the ACC accumulator-machine CPU.  Each is
   checked against an OCaml reference model, across engines, and
   through the gate-level lowering. *)

let hist sys p =
  match Cycle_system.find_component sys p with
  | Some c -> Cycle_system.output_history sys c
  | None -> []

let last_value h =
  match List.rev h with
  | (_, v) :: _ -> Fixed.to_int v
  | [] -> Alcotest.fail "empty history"

let value_at h cycle =
  match List.assoc_opt cycle h with
  | Some v -> Fixed.to_int v
  | None -> Alcotest.failf "no token at cycle %d" cycle

(* --- RS: the GF(16) reference model ---------------------------------------- *)

(* Field axioms on the exposed reference arithmetic (the same tables
   the hardware ROMs are folded from). *)
let test_rs_field_axioms () =
  for a = 0 to 15 do
    Alcotest.(check int) "x * 1 = x" a (Rs_codec.gf_mul a 1);
    Alcotest.(check int) "x * 0 = 0" 0 (Rs_codec.gf_mul a 0);
    for b = 0 to 15 do
      Alcotest.(check int) "commutative" (Rs_codec.gf_mul a b)
        (Rs_codec.gf_mul b a);
      for c = 0 to 15 do
        Alcotest.(check int) "distributive"
          (Rs_codec.gf_mul a (b lxor c))
          (Rs_codec.gf_mul a b lxor Rs_codec.gf_mul a c)
      done
    done
  done;
  (* alpha = 2 is primitive: alpha^4 = alpha + 1 under x^4 + x + 1,
     and the multiplicative order is 15. *)
  Alcotest.(check int) "alpha^4 = 3" 3 (Rs_codec.gf_pow 2 4);
  Alcotest.(check int) "alpha^15 = 1" 1 (Rs_codec.gf_pow 2 15);
  for e = 1 to 14 do
    Alcotest.(check bool)
      (Printf.sprintf "alpha^%d <> 1" e)
      true
      (Rs_codec.gf_pow 2 e <> 1)
  done

(* Evaluate a polynomial (index = power of x) at a point. *)
let poly_eval p x =
  Array.fold_right (fun c acc -> Rs_codec.gf_mul acc x lxor c) p 0

let test_rs_gen_poly_roots () =
  List.iter
    (fun t ->
      let g = Rs_codec.gen_poly t in
      Alcotest.(check int) "degree 2t" (2 * t) (Array.length g - 1);
      Alcotest.(check int) "monic" 1 g.(Array.length g - 1);
      for j = 1 to 2 * t do
        Alcotest.(check int)
          (Printf.sprintf "g(alpha^%d) = 0 (t=%d)" j t)
          0
          (poly_eval g (Rs_codec.gf_pow 2 j))
      done)
    [ 1; 2; 3 ]

(* --- RS: hardware vs reference --------------------------------------------- *)

let rs_setup ?(err_period = 0) () =
  Rs_codec.create
    ~data_stimulus:(Rs_codec.data_stimulus ())
    ~err_stimulus:(Rs_codec.err_stimulus ~period:err_period ())
    ()

(* Every transmitted block must be a true codeword: the reference
   Horner syndromes of each n-symbol "sym" block are all zero.  This
   checks the hardware LFSR encoder against the OCaml field model. *)
let test_rs_encoder_emits_codewords () =
  let rs = rs_setup () in
  let n = rs.Rs_codec.n in
  let blocks = 8 in
  Cycle_system.run rs.Rs_codec.system (blocks * n);
  let sym = hist rs.Rs_codec.system "sym" in
  for b = 0 to blocks - 1 do
    for j = 1 to 2 * ((n - rs.Rs_codec.k) / 2) do
      let s =
        let acc = ref 0 in
        for i = 0 to n - 1 do
          acc :=
            Rs_codec.gf_mul !acc (Rs_codec.gf_pow 2 j)
            lxor value_at sym ((b * n) + i)
        done;
        !acc
      in
      Alcotest.(check int)
        (Printf.sprintf "block %d syndrome S%d" b j)
        0 s
    done
  done

(* Clean channel: the decoder's error flag stays 0 forever. *)
let test_rs_clean_channel_no_error () =
  let rs = rs_setup () in
  Cycle_system.run rs.Rs_codec.system 120;
  List.iter
    (fun (c, v) ->
      if Fixed.to_int v <> 0 then
        Alcotest.failf "serr = 1 at cycle %d on a clean channel" c)
    (hist rs.Rs_codec.system "serr")

(* Corrupted channel: the default injector hits blocks 0, 3 and 6
   (cycles 7, 52, 97); the decoder must flag exactly those blocks —
   serr reflects the previous block's verdict, so the flag for block b
   shows during block b+1. *)
let test_rs_detects_injected_errors () =
  let rs = rs_setup ~err_period:45 () in
  let n = rs.Rs_codec.n in
  Cycle_system.run rs.Rs_codec.system 135;
  let serr = hist rs.Rs_codec.system "serr" in
  let flagged b =
    (* sample mid-window of block b+1, clear of the latch edges *)
    value_at serr (((b + 1) * n) + (n / 2)) <> 0
  in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "block %d flagged" b)
        true (flagged b))
    [ 0; 3; 6 ];
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "block %d clean" b)
        false (flagged b))
    [ 1; 2; 4; 5 ]

let test_rs_parameter_validation () =
  let mk ?k ?t () =
    Rs_codec.create ?k ?t
      ~data_stimulus:(Rs_codec.data_stimulus ())
      ~err_stimulus:(Rs_codec.err_stimulus ~period:0 ())
      ()
  in
  List.iter
    (fun (k, t) ->
      match mk ~k ~t () with
      | _ -> Alcotest.failf "k=%d t=%d accepted" k t
      | exception _ -> ())
    [ (11, 0); (11, 4); (14, 2) ]

(* --- RS: engines and levels ------------------------------------------------ *)

let rs_system () = (rs_setup ~err_period:45 ()).Rs_codec.system

let check_engines_agree name build ~cycles ~engines =
  let base = Flow.simulate ~engine:(List.hd engines) (build ()) ~cycles in
  List.iter
    (fun engine ->
      let h = Flow.simulate ~engine (build ()) ~cycles in
      match Flow.first_history_mismatch base h with
      | None -> ()
      | Some (probe, cycle, detail) ->
        Alcotest.failf "%s: %s vs %s differ at %s cycle %s: %s" name
          (List.hd engines) engine probe
          (match cycle with Some c -> string_of_int c | None -> "?")
          detail)
    (List.tl engines)

let test_rs_engines_agree () =
  check_engines_agree "rs" rs_system ~cycles:90
    ~engines:[ "interp"; "compiled"; "rtl"; "gate" ]

let test_rs_gate_equivalence () = Test_ir.check_all_levels rs_system ~cycles:90

(* --- ACC: the self-checking program ---------------------------------------- *)

let cpu_setup ?program () =
  Acc_cpu.create ?program ~io_stimulus:(Acc_cpu.io_stimulus ()) ()

(* The default ROM program sums 1..5 through the data RAM, checks the
   total against 15, publishes it and halts. *)
let test_cpu_self_check () =
  let cpu = cpu_setup () in
  let sys = cpu.Acc_cpu.system in
  Cycle_system.run sys Acc_cpu.check_cycles;
  Alcotest.(check int) "out = 15" 15 (last_value (hist sys "out"));
  Alcotest.(check int) "ok = 1" 1 (last_value (hist sys "ok"));
  (* HALT freezes the architectural state: the pc is pinned from well
     before the budget. *)
  let pc = last_value (hist sys "pc") in
  Alcotest.(check int) "pc frozen at budget + 16"
    (let cpu2 = cpu_setup () in
     Cycle_system.run cpu2.Acc_cpu.system (Acc_cpu.check_cycles + 16);
     last_value (hist cpu2.Acc_cpu.system "pc"))
    pc

(* A custom immediate-ALU program through the exposed assembler
   surface: LDI 12; XOR 5; ADD 3; CHK 12; OUT; HALT. *)
let test_cpu_custom_program () =
  let program =
    [|
      (Acc_cpu.op_ldi, 12);
      (Acc_cpu.op_xor, 5);
      (Acc_cpu.op_add, 3);
      (Acc_cpu.op_chk, 12);
      (Acc_cpu.op_out, 0);
      (Acc_cpu.op_halt, 0);
    |]
  in
  let cpu = cpu_setup ~program () in
  let sys = cpu.Acc_cpu.system in
  Cycle_system.run sys 16;
  Alcotest.(check int) "acc = (12 xor 5) + 3" 12 (last_value (hist sys "acc"));
  Alcotest.(check int) "out published" 12 (last_value (hist sys "out"));
  Alcotest.(check int) "chk passed" 1 (last_value (hist sys "ok"))

(* --- ACC: engines and levels ----------------------------------------------- *)

let cpu_system () = (cpu_setup ()).Acc_cpu.system

let test_cpu_engines_agree () =
  check_engines_agree "cpu" cpu_system ~cycles:Acc_cpu.check_cycles
    ~engines:[ "interp"; "compiled"; "rtl"; "gate" ]

let test_cpu_gate_equivalence () =
  Test_ir.check_all_levels cpu_system ~cycles:Acc_cpu.check_cycles

let suite =
  [
    Alcotest.test_case "RS field axioms (GF(16))" `Quick test_rs_field_axioms;
    Alcotest.test_case "RS generator polynomial roots" `Quick
      test_rs_gen_poly_roots;
    Alcotest.test_case "RS encoder emits true codewords" `Quick
      test_rs_encoder_emits_codewords;
    Alcotest.test_case "RS clean channel: serr stays 0" `Quick
      test_rs_clean_channel_no_error;
    Alcotest.test_case "RS flags exactly the corrupted blocks" `Quick
      test_rs_detects_injected_errors;
    Alcotest.test_case "RS parameter validation" `Quick
      test_rs_parameter_validation;
    Alcotest.test_case "RS engines agree" `Slow test_rs_engines_agree;
    Alcotest.test_case "RS gate-level equivalence" `Slow
      test_rs_gate_equivalence;
    Alcotest.test_case "CPU self-check program" `Quick test_cpu_self_check;
    Alcotest.test_case "CPU custom program" `Quick test_cpu_custom_program;
    Alcotest.test_case "CPU engines agree" `Slow test_cpu_engines_agree;
    Alcotest.test_case "CPU gate-level equivalence" `Slow
      test_cpu_gate_equivalence;
  ]
