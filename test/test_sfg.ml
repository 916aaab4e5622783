(* Tests for signal flow graphs: construction, checks, firing. *)

let s8 = Fixed.signed ~width:8 ~frac:0
let clk = Clock.default

let simple_sfg () =
  let acc = Signal.Reg.create clk "t_acc" s8 in
  let sfg =
    Sfg.build "acc_sfg" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        let sum = Signal.(x +: reg_q acc) in
        Sfg.Builder.output b "sum" (Signal.resize s8 sum);
        Sfg.Builder.assign_resized b acc sum)
  in
  (sfg, acc)

let test_accessors () =
  let sfg, acc = simple_sfg () in
  Alcotest.(check string) "name" "acc_sfg" (Sfg.name sfg);
  Alcotest.(check int) "inputs" 1 (List.length (Sfg.inputs sfg));
  Alcotest.(check int) "outputs" 1 (List.length (Sfg.outputs sfg));
  Alcotest.(check int) "assigns" 1 (List.length (Sfg.assigns sfg));
  Alcotest.(check bool) "regs_written" true
    (List.exists (fun r -> Signal.Reg.id r = Signal.Reg.id acc) (Sfg.regs_written sfg));
  Alcotest.(check bool) "regs_read" true
    (List.exists (fun r -> Signal.Reg.id r = Signal.Reg.id acc) (Sfg.regs_read sfg));
  Alcotest.(check bool) "node_count > 3" true (Sfg.node_count sfg > 3)

let test_duplicate_names_rejected () =
  (match
     Sfg.build "dup_out" (fun b ->
         Sfg.Builder.output b "o" Signal.vdd;
         Sfg.Builder.output b "o" Signal.gnd)
   with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "duplicate output accepted");
  (match
     Sfg.build "dup_in" (fun b ->
         ignore (Sfg.Builder.input b "i" s8);
         ignore (Sfg.Builder.input b "i" s8))
   with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "duplicate input accepted");
  let r = Signal.Reg.create clk "t_dup" s8 in
  match
    Sfg.build "dup_assign" (fun b ->
        Sfg.Builder.assign b r (Signal.consti s8 1);
        Sfg.Builder.assign b r (Signal.consti s8 2))
  with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "double assign accepted"

let test_assign_format_check () =
  let r = Signal.Reg.create clk "t_fmt" s8 in
  match
    Sfg.build "bad_fmt" (fun b ->
        Sfg.Builder.assign b r Signal.vdd (* 1-bit into 8-bit register *))
  with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "format mismatch accepted"

let test_checks () =
  let sfg =
    Sfg.build "dangling" (fun b ->
        ignore (Sfg.Builder.input b "unused" s8);
        Sfg.Builder.output b "const_out" (Signal.consti s8 1))
  in
  let issues = Sfg.check sfg in
  Alcotest.(check bool) "dangling reported" true
    (List.exists
       (function Sfg.Dangling_input "unused" -> true | _ -> false)
       issues);
  Alcotest.(check bool) "constant output not reported by default" false
    (List.exists (function Sfg.Dead_output _ -> true | _ -> false) issues);
  let issues = Sfg.check ~flag_constant_outputs:true sfg in
  Alcotest.(check bool) "constant output reported when asked" true
    (List.exists
       (function Sfg.Dead_output "const_out" -> true | _ -> false)
       issues);
  let clean, _ = simple_sfg () in
  Alcotest.(check int) "clean sfg" 0 (List.length (Sfg.check clean))

let test_fire () =
  let sfg, acc = simple_sfg () in
  Signal.Reg.reset acc;
  let env = Signal.Env.create () in
  (match Sfg.inputs sfg with
  | [ i ] -> Signal.Env.bind env i (Fixed.of_int s8 7)
  | _ -> Alcotest.fail "one input expected");
  let out = Sfg.fire sfg env in
  Alcotest.(check int) "output" 7 (Fixed.to_int (List.assoc "sum" out));
  Alcotest.(check int) "reg not yet committed" 0
    (Fixed.to_int (Signal.Reg.value acc));
  Signal.Reg.commit acc;
  Alcotest.(check int) "committed" 7 (Fixed.to_int (Signal.Reg.value acc))

let test_nop () =
  let sfg = Sfg.nop "idle" in
  Alcotest.(check int) "no ports" 0
    (List.length (Sfg.inputs sfg) + List.length (Sfg.outputs sfg));
  let out = Sfg.fire sfg (Signal.Env.create ()) in
  Alcotest.(check int) "no tokens" 0 (List.length out)

let test_shared_port () =
  (* Two SFGs sharing one Input.t, as components do. *)
  let port = Signal.Input.create "shared" s8 in
  let a =
    Sfg.build "uses_a" (fun b ->
        let x = Sfg.Builder.input_port b port in
        Sfg.Builder.output b "o" (Signal.resize s8 x))
  in
  let b_sfg =
    Sfg.build "uses_b" (fun b ->
        let x = Sfg.Builder.input_port b port in
        Sfg.Builder.output b "o" (Signal.resize s8 (Signal.neg x)))
  in
  let env = Signal.Env.create () in
  Signal.Env.bind env port (Fixed.of_int s8 5);
  Alcotest.(check int) "a" 5 (Fixed.to_int (List.assoc "o" (Sfg.fire a env)));
  Alcotest.(check int) "b" (-5) (Fixed.to_int (List.assoc "o" (Sfg.fire b_sfg env)))

let suite =
  [
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "duplicate names rejected" `Quick test_duplicate_names_rejected;
    Alcotest.test_case "assign format check" `Quick test_assign_format_check;
    Alcotest.test_case "semantic checks" `Quick test_checks;
    Alcotest.test_case "fire" `Quick test_fire;
    Alcotest.test_case "nop" `Quick test_nop;
    Alcotest.test_case "shared input port" `Quick test_shared_port;
  ]
