(* An "op-complete" design: a single component whose SFGs exercise every
   Signal operator (both rounding-and-overflow modes of resize, ROM
   reads, shifts, all arithmetic / logic / comparison / mux forms), run
   through every engine and every back end.  Anything the engines or
   code generators get subtly wrong about any operator shows up here. *)

let clk = Clock.default
let s84 = Fixed.signed ~width:8 ~frac:4
let u6 = Fixed.unsigned ~width:6 ~frac:0
let bit = Fixed.bit_format

let build () =
  let table =
    Signal.Rom.create "oc_rom" s84
      (Array.init 16 (fun i -> Fixed.of_float s84 (float (i - 8) /. 4.0)))
  in
  let acc = Signal.Reg.create clk "oc_acc" s84 in
  let phase = Signal.Reg.create clk "oc_phase" bit in
  let idx = Signal.Reg.create clk "oc_idx" (Fixed.unsigned ~width:4 ~frac:0) in
  let everything =
    Sfg.build "oc_all" (fun b ->
        let x = Sfg.Builder.input b "x" s84 in
        let y = Sfg.Builder.input b "y" s84 in
        let open Signal in
        let sum = x +: y in
        let diff = x -: y in
        let prod = x *: y in
        let negx = neg x in
        let absy = abs_ y in
        let land_ = x &: y in
        let lor_ = x |: y in
        let lxor_ = x ^: y in
        let lnot_ = ~:x in
        let eq_ = x ==: y in
        let ne_ = x <>: y in
        let lt_ = x <: y in
        let le_ = x <=: y in
        let gt_ = x >: y in
        let ge_ = y >=: x in
        let m1 = mux2 lt_ sum diff in
        let m2 = mux2 eq_ prod (reg_q acc) in
        let shl2 = shift_left x 2 in
        let shr3 = shift_right prod 3 in
        let romv = rom table (reg_q idx) in
        let r_tw = resize ~round:Fixed.Truncate ~overflow:Fixed.Wrap s84 sum in
        let r_ns =
          resize ~round:Fixed.Round_nearest ~overflow:Fixed.Saturate s84 prod
        in
        let r_es =
          resize ~round:Fixed.Round_even ~overflow:Fixed.Saturate
            (Fixed.signed ~width:6 ~frac:1) diff
        in
        let r_nw =
          resize ~round:Fixed.Round_nearest ~overflow:Fixed.Wrap u6 absy
        in
        let combined =
          resize ~overflow:Fixed.Saturate s84
            (m1 +: m2 +: romv +: shr3
            +: resize s84 shl2
            +: resize s84 r_es
            +: resize s84 r_nw)
        in
        Sfg.Builder.output b "main_out" combined;
        Sfg.Builder.output b "flags"
          (resize (Fixed.unsigned ~width:6 ~frac:0)
             (resize u6 eq_ |: shift_left (resize u6 ne_) 1
             |: shift_left (resize u6 le_) 2
             |: shift_left (resize u6 gt_) 3
             |: shift_left (resize u6 ge_) 4
             |: shift_left (resize u6 lt_) 5));
        Sfg.Builder.output b "logic_out"
          (resize ~overflow:Fixed.Saturate s84 (land_ +: lor_ +: lxor_ +: lnot_));
        Sfg.Builder.output b "trunc_out" r_tw;
        Sfg.Builder.output b "sat_out" r_ns;
        Sfg.Builder.output b "neg_out" (resize ~overflow:Fixed.Saturate s84 negx);
        Sfg.Builder.assign_resized b acc combined;
        Sfg.Builder.assign b phase (~:(reg_q phase));
        Sfg.Builder.assign_resized b idx
          (reg_q idx +: consti (Fixed.unsigned ~width:4 ~frac:0) 1))
  in
  let quiet =
    Sfg.build "oc_quiet" (fun b ->
        let x = Sfg.Builder.input b "x" s84 in
        let y = Sfg.Builder.input b "y" s84 in
        let open Signal in
        Sfg.Builder.output b "main_out"
          (resize ~overflow:Fixed.Saturate s84 (x -: y));
        Sfg.Builder.output b "flags" (consti (Fixed.unsigned ~width:6 ~frac:0) 0);
        Sfg.Builder.output b "logic_out" (resize s84 (reg_q acc));
        Sfg.Builder.output b "trunc_out" (resize s84 x);
        Sfg.Builder.output b "sat_out" (resize s84 y);
        Sfg.Builder.output b "neg_out" (resize s84 (neg (reg_q acc)));
        Sfg.Builder.assign b phase (~:(reg_q phase));
        Sfg.Builder.assign_resized b idx
          (reg_q idx +: consti (Fixed.unsigned ~width:4 ~frac:0) 1))
  in
  let fsm = Fsm.create "oc_ctl" in
  let busy = Fsm.initial fsm "busy" in
  let calm = Fsm.state fsm "calm" in
  Fsm.(busy |-- cnd (Signal.reg_q phase) |+ quiet |-> calm);
  Fsm.(busy |-- always |+ everything |-> busy);
  Fsm.(calm |-- always |+ everything |-> busy);
  let sys = Cycle_system.create "opcomplete" in
  let c = Cycle_system.add_timed sys "allops" fsm in
  let sx =
    Cycle_system.add_input sys "x_in" s84 (fun cyc ->
        Some (Fixed.create s84 (Int64.of_int ((cyc * 37 mod 233) - 116))))
  in
  let sy =
    Cycle_system.add_input sys "y_in" s84 (fun cyc ->
        Some (Fixed.create s84 (Int64.of_int ((cyc * 53 mod 219) - 109))))
  in
  let probes = [ "main_out"; "flags"; "logic_out"; "trunc_out"; "sat_out"; "neg_out" ] in
  ignore (Cycle_system.connect sys (sx, "out") [ (c, "x") ]);
  ignore (Cycle_system.connect sys (sy, "out") [ (c, "y") ]);
  List.iter
    (fun p ->
      let pc = Cycle_system.add_output sys p in
      ignore (Cycle_system.connect sys (c, p) [ (pc, "in") ]))
    probes;
  sys

let test_engines_agree () =
  Alcotest.(check (list string)) "all engines" []
    (Flow.engines_agree (build ()) ~cycles:120)

let test_netlist_all_option_combinations () =
  List.iter
    (fun (share, encoding, optimize) ->
      let sys = build () in
      let options =
        { Synthesize.default_options with
          Synthesize.share_operators = share;
          Synthesize.state_encoding = encoding }
      in
      let r = Synthesize.verify ~options ~optimize sys ~cycles:60 in
      Alcotest.(check int)
        (Printf.sprintf "share=%b onehot=%b opt=%b" share
           (encoding = Synthesize.One_hot)
           optimize)
        0
        (List.length r.Synthesize.mismatches))
    [
      (true, Synthesize.Binary, false);
      (false, Synthesize.Binary, false);
      (true, Synthesize.One_hot, false);
      (true, Synthesize.Binary, true);
      (false, Synthesize.One_hot, true);
    ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_vhdl_markers () =
  let sys = build () in
  let files = Vhdl.of_system sys in
  let comp = List.assoc "allops.vhd" files in
  List.iter
    (fun marker -> Alcotest.(check bool) marker true (contains comp marker))
    [
      " + "; " - "; " * "; "abs("; " and "; " or "; " xor "; "not ";
      "rom_oc_rom"; "shift_left"; "to_signed"; "case state is";
    ]

let test_emitted_simulator () =
  (* Skipped on toolchain-less hosts, same rationale as the engines
     suite's end-to-end emitted-simulator test. *)
  if
    Sys.command
      "command -v ocamlfind >/dev/null 2>&1 || command -v ocamlopt >/dev/null 2>&1"
    <> 0
  then Alcotest.skip ();
  let sys = build () in
  let cycles = 40 in
  let interp = Flow.simulate sys ~cycles in
  Cycle_system.reset sys;
  let src = Emit.emit_standalone sys ~cycles in
  let count = ref 0 in
  Temp_dir.with_dir "ocapi_oc" (fun dir ->
      let ml = Filename.concat dir "sim.ml" in
      let oc = open_out ml in
      output_string oc src;
      close_out oc;
      let exe = Filename.concat dir "sim.exe" in
      let rc =
        Sys.command
          (Printf.sprintf "ocamlopt %s -o %s >/dev/null 2>&1 || ocamlfind ocamlopt %s -o %s >/dev/null 2>&1" ml exe ml exe)
      in
      if rc <> 0 then Alcotest.fail "emitted op-complete simulator failed to compile";
      let ic = Unix.open_process_in exe in
      (try
         while true do
           ignore (input_line ic);
           incr count
         done
       with End_of_file -> ());
      ignore (Unix.close_process_in ic));
  let expected =
    List.fold_left (fun acc (_, h) -> acc + List.length h) 0 interp
  in
  Alcotest.(check int) "token count" expected !count

let suite =
  [
    Alcotest.test_case "engines agree on all ops" `Quick test_engines_agree;
    Alcotest.test_case "netlist verifies under every option" `Slow
      test_netlist_all_option_combinations;
    Alcotest.test_case "vhdl covers the operator set" `Quick test_vhdl_markers;
    Alcotest.test_case "emitted simulator (all ops)" `Slow test_emitted_simulator;
  ]
