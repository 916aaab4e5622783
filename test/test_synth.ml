(* Tests for the synthesis strategy: controller + datapath split,
   operator sharing, linkage and gate-level verification. *)

let s8 = Fixed.signed ~width:8 ~frac:0
let clk = Clock.default

(* A system with a 3-state controller and a datapath with distinct
   mutually-exclusive instructions (sharing opportunities). *)
let alu_system () =
  let acc = Signal.Reg.create clk "alu_acc" s8 in
  let mode = Signal.Reg.create clk "alu_mode" Fixed.bit_format in
  let sfg_add =
    Sfg.build "alu_add" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.output b "r" (Signal.resize s8 Signal.(x +: reg_q acc));
        Sfg.Builder.assign_resized b acc Signal.(x +: reg_q acc);
        Sfg.Builder.assign b mode Signal.(reg_q acc <: consti s8 20))
  in
  let sfg_sub =
    Sfg.build "alu_sub" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.output b "r" (Signal.resize s8 Signal.(reg_q acc -: x));
        Sfg.Builder.assign_resized b acc Signal.(reg_q acc -: x);
        Sfg.Builder.assign b mode Signal.(reg_q acc <: consti s8 20))
  in
  let sfg_mul =
    Sfg.build "alu_mul" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.output b "r"
          (Signal.resize ~overflow:Fixed.Saturate s8 Signal.(x *: reg_q acc));
        Sfg.Builder.assign b mode Signal.(reg_q acc <: consti s8 20))
  in
  let fsm = Fsm.create "alu_ctl" in
  let s_add = Fsm.initial fsm "adding" in
  let s_sub = Fsm.state fsm "subbing" in
  let s_mul = Fsm.state fsm "mulling" in
  Fsm.(s_add |-- cnd (Signal.reg_q mode) |+ sfg_add |-> s_sub);
  Fsm.(s_add |-- always |+ sfg_mul |-> s_mul);
  Fsm.(s_sub |-- always |+ sfg_sub |-> s_add);
  Fsm.(s_mul |-- always |+ sfg_add |-> s_add);
  let sys = Cycle_system.create "alu" in
  let c = Cycle_system.add_timed sys "alu" fsm in
  let stim =
    Cycle_system.add_input sys "x_in" s8 (fun cyc ->
        Some (Fixed.of_int s8 ((cyc * 13 mod 17) - 8)))
  in
  let p = Cycle_system.add_output sys "r_out" in
  ignore (Cycle_system.connect sys (stim, "out") [ (c, "x") ]);
  ignore (Cycle_system.connect sys (c, "r") [ (p, "in") ]);
  sys

let test_verify_shared () =
  let sys = alu_system () in
  let r = Synthesize.verify sys ~cycles:80 in
  Alcotest.(check int) "vectors" 80 r.Synthesize.vectors_checked;
  Alcotest.(check int) "no mismatches" 0 (List.length r.Synthesize.mismatches)

let test_verify_unshared () =
  let sys = alu_system () in
  let r =
    Synthesize.verify ~options:{ Synthesize.default_options with Synthesize.share_operators = false } sys
      ~cycles:80
  in
  Alcotest.(check int) "no mismatches" 0 (List.length r.Synthesize.mismatches)

let test_sharing_reduces_gates () =
  let sys = alu_system () in
  let _, shared = Synthesize.synthesize sys in
  let _, unshared =
    Synthesize.synthesize ~options:{ Synthesize.default_options with Synthesize.share_operators = false } sys
  in
  Alcotest.(check bool) "sharing reported" true
    (List.exists
       (fun c -> c.Synthesize.cr_shared_units <> [])
       shared.Synthesize.components);
  (* Sharing the multiplier across exclusive instructions must not cost
     more than duplicating it. *)
  Alcotest.(check bool) "shared <= unshared" true
    (shared.Synthesize.total.Netlist.gate_equivalents
    <= unshared.Synthesize.total.Netlist.gate_equivalents)

let test_report_contents () =
  let sys = alu_system () in
  let _, rep = Synthesize.synthesize sys in
  Alcotest.(check int) "one component" 1 (List.length rep.Synthesize.components);
  (match rep.Synthesize.components with
  | [ c ] ->
    Alcotest.(check string) "name" "alu" c.Synthesize.cr_name;
    Alcotest.(check int) "instructions" 4 c.Synthesize.cr_instructions;
    Alcotest.(check int) "states" 3 c.Synthesize.cr_states;
    Alcotest.(check bool) "gates counted" true (c.Synthesize.cr_gate_equivalents > 100)
  | _ -> Alcotest.fail "component list");
  Alcotest.(check bool) "dffs counted" true (rep.Synthesize.total.Netlist.flip_flops >= 9)

let test_controller_state_sequencing () =
  (* The synthesized netlist must follow the same state sequence; its
     outputs over time prove it (checked by verify), and the netlist is
     a valid structure for the Verilog printer. *)
  let sys = alu_system () in
  let nl, _ = Synthesize.synthesize sys in
  let text = Verilog.of_netlist nl in
  Alcotest.(check bool) "module header" true
    (String.length text > 200
    && String.sub text 0 2 = "//");
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions module alu" true (contains text "module alu")

let test_ram_macro_system () =
  (* A timed component looping through a RAM kernel survives synthesis
     and verifies at gate level (the fig 6 structure, synthesized). *)
  let ptr = Signal.Reg.create clk "rm_ptr" (Fixed.unsigned ~width:3 ~frac:0) in
  let acc = Signal.Reg.create clk "rm_acc" s8 in
  let sfg =
    Sfg.build "rm_step" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        let rdata = Sfg.Builder.input b "rdata" s8 in
        Sfg.Builder.output b "addr" (Signal.resize (Fixed.unsigned ~width:3 ~frac:0) (Signal.reg_q ptr));
        Sfg.Builder.output b "wdata" (Signal.resize s8 x);
        Sfg.Builder.output b "we" Signal.vdd;
        Sfg.Builder.output b "sum" (Signal.resize s8 Signal.(rdata +: reg_q acc));
        Sfg.Builder.assign_resized b ptr
          Signal.(reg_q ptr +: consti (Fixed.unsigned ~width:3 ~frac:0) 1);
        Sfg.Builder.assign_resized b acc Signal.(rdata +: reg_q acc))
  in
  let fsm = Fsm.create "rm_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let sys = Cycle_system.create "ram_sys" in
  let c = Cycle_system.add_timed sys "stepper" fsm in
  let ram =
    Cycle_system.add_untimed sys
      (Ram_cell.kernel ~name:"test_ram_sys_ram" ~words:8 ~data_fmt:s8
         ~addr_fmt:(Fixed.unsigned ~width:3 ~frac:0))
  in
  let stim = Cycle_system.add_input sys "x_in" s8 (fun cyc -> Some (Fixed.of_int s8 (cyc mod 50))) in
  let probe = Cycle_system.add_output sys "sum_out" in
  ignore (Cycle_system.connect sys (stim, "out") [ (c, "x") ]);
  ignore (Cycle_system.connect sys (c, "addr") [ (ram, "addr") ]);
  ignore (Cycle_system.connect sys (c, "wdata") [ (ram, "wdata") ]);
  ignore (Cycle_system.connect sys (c, "we") [ (ram, "we") ]);
  ignore (Cycle_system.connect sys (ram, "rdata") [ (c, "rdata") ]);
  ignore (Cycle_system.connect sys (c, "sum") [ (probe, "in") ]);
  let r = Synthesize.verify sys ~cycles:40 in
  Alcotest.(check int) "no mismatches" 0 (List.length r.Synthesize.mismatches);
  Alcotest.(check int) "vectors" 40 r.Synthesize.vectors_checked

(* The RAM macro is the one the synthesized system's kernel declares,
   whatever RAMs of the same name were built since: two fuzz genomes
   whose [fzram] words are 2 and 5 bits wide, built in turn. *)
let test_ram_macro_from_system () =
  let module Spec = Ocapi_diff.Spec in
  let rec with_ram seed =
    let spec = Spec.generate ~seed () in
    if Option.is_some spec.Spec.sp_ram then spec else with_ram (seed + 1)
  in
  let spec = with_ram 1 in
  let build width =
    Spec.build
      {
        spec with
        Spec.sp_ram =
          Option.map
            (fun r ->
              { r with Spec.rs_data = { Spec.f_signed = false; f_width = width; f_frac = 0 } })
            spec.Spec.sp_ram;
      }
  in
  let narrow = build 2 in
  ignore (build 5);
  let _, rep = Synthesize.synthesize ~macro_of_kernel:Ram_cell.macro_of_kernel narrow in
  Alcotest.(check int) "8 words of 2 bits" 16 rep.Synthesize.total.Netlist.ram_bits

let test_unknown_kernel_rejected () =
  let sys = Cycle_system.create "unk" in
  let k =
    Dataflow.Kernel.create "mystery"
      ~formats:[ ("in", s8); ("out", s8) ]
      ~inputs:[ ("in", 1) ] ~outputs:[ ("out", 1) ]
      (fun _ -> [ ("out", [ Fixed.zero s8 ]) ])
  in
  ignore (Cycle_system.add_untimed sys k);
  match Synthesize.synthesize sys with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "unknown kernel accepted"

let test_one_hot_encoding () =
  let sys = alu_system () in
  let options =
    { Synthesize.default_options with Synthesize.state_encoding = Synthesize.One_hot }
  in
  let r = Synthesize.verify ~options sys ~cycles:80 in
  Alcotest.(check int) "one-hot verifies" 0 (List.length r.Synthesize.mismatches);
  (* One-hot uses one flip-flop per state (3) instead of ceil(log2 3) = 2. *)
  let _, rep_oh = Synthesize.synthesize ~options sys in
  let _, rep_bin = Synthesize.synthesize sys in
  Alcotest.(check int) "one extra state bit" 1
    (rep_oh.Synthesize.total.Netlist.flip_flops
    - rep_bin.Synthesize.total.Netlist.flip_flops)

let suite =
  [
    Alcotest.test_case "verify (shared)" `Quick test_verify_shared;
    Alcotest.test_case "verify (unshared)" `Quick test_verify_unshared;
    Alcotest.test_case "sharing reduces gates" `Quick test_sharing_reduces_gates;
    Alcotest.test_case "report contents" `Quick test_report_contents;
    Alcotest.test_case "verilog printable" `Quick test_controller_state_sequencing;
    Alcotest.test_case "RAM macro system" `Quick test_ram_macro_system;
    Alcotest.test_case "RAM macro from the synthesized system" `Quick
      test_ram_macro_from_system;
    Alcotest.test_case "unknown kernel rejected" `Quick test_unknown_kernel_rejected;
    Alcotest.test_case "one-hot encoding" `Quick test_one_hot_encoding;
  ]
