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

(* Resizes at the edges of the emitter's word mode: wraps of both
   signednesses to each of [widths] bits, saturation, and nearest and
   even rounding dropping 1 and 62 fraction bits, over inputs whose
   mantissas fill their [in_width]-bit formats. *)
let resizes ~name ~in_width ~widths =
  let x_fmt = Fixed.signed ~width:in_width ~frac:0 in
  let f_fmt = Fixed.signed ~width:in_width ~frac:62 in
  let h_fmt = Fixed.signed ~width:20 ~frac:1 in
  let ports = ref [] in
  let sfg =
    Sfg.build (name ^ "_all") (fun b ->
        let x = Sfg.Builder.input b "x" x_fmt in
        let f = Sfg.Builder.input b "f" f_fmt in
        let h = Sfg.Builder.input b "h" h_fmt in
        let out port e =
          ports := port :: !ports;
          Sfg.Builder.output b port e
        in
        let open Signal in
        List.iter
          (fun w ->
            (* Shifted left one bit first, so even [in_width] wraps. *)
            let to_ name fmt = out (Printf.sprintf "%s%d" name w) (resize fmt x) in
            to_ "ws" (Fixed.signed ~width:w ~frac:1);
            to_ "wu" (Fixed.unsigned ~width:w ~frac:1);
            to_ "ts" (Fixed.signed ~width:w ~frac:0);
            to_ "tu" (Fixed.unsigned ~width:w ~frac:0))
          widths;
        let sat fmt = resize ~overflow:Fixed.Saturate fmt x in
        out "ss8" (sat (Fixed.signed ~width:8 ~frac:0));
        out "su8" (sat (Fixed.unsigned ~width:8 ~frac:0));
        out "ssw" (sat (Fixed.signed ~width:(in_width - 1) ~frac:0));
        out "suw" (sat (Fixed.unsigned ~width:(in_width - 1) ~frac:0));
        let round ?overflow round fmt e = resize ~round ?overflow fmt e in
        out "rn1" (round Fixed.Round_nearest (Fixed.signed ~width:19 ~frac:0) h);
        out "rn1s"
          (round ~overflow:Fixed.Saturate Fixed.Round_nearest
             (Fixed.signed ~width:8 ~frac:0) h);
        out "re1" (round Fixed.Round_even (Fixed.signed ~width:19 ~frac:0) h);
        out "rn62" (round Fixed.Round_nearest (Fixed.signed ~width:4 ~frac:0) f);
        out "re62" (round Fixed.Round_even (Fixed.signed ~width:4 ~frac:0) f))
  in
  let fsm = Fsm.create (name ^ "_ctl") in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let sys = Cycle_system.create name in
  let c = Cycle_system.add_timed sys "edges" fsm in
  (* Mantissas spread over the whole format, both signs. *)
  let spread fmt ~seed cyc =
    let m = Int64.mul (Int64.of_int ((cyc * 7919) + seed)) 0x9E3779B97F4A7C15L in
    Some (Fixed.create fmt (Int64.shift_right m (64 - fmt.Fixed.width)))
  in
  List.iter
    (fun (stim, port, fmt, seed) ->
      let i = Cycle_system.add_input sys stim fmt (spread fmt ~seed) in
      ignore (Cycle_system.connect sys (i, "out") [ (c, port) ]))
    [ ("x_in", "x", x_fmt, 1); ("f_in", "f", f_fmt, 2); ("h_in", "h", h_fmt, 3) ];
  List.iter
    (fun port ->
      let pc = Cycle_system.add_output sys port in
      ignore (Cycle_system.connect sys (c, port) [ (pc, "in") ]))
    (List.rev !ports);
  sys

(* The standalone simulator [Emit.emit_standalone] writes for [sys],
   compiled and run: its "<cycle> <probe> <mantissa>" lines, sorted,
   against the interpreter's probe tokens. *)
let check_emitted_simulator sys ~cycles =
  let interp =
    Flow.simulate sys ~cycles
    |> List.concat_map (fun (probe, h) ->
           List.map
             (fun (c, v) -> Printf.sprintf "%d %s %Ld" c probe (Fixed.mantissa v))
             h)
  in
  Cycle_system.reset sys;
  let src = Emit.emit_standalone sys ~cycles in
  let lines = ref [] in
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
      if rc <> 0 then Alcotest.fail "emitted simulator failed to compile";
      let ic = Unix.open_process_in exe in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      ignore (Unix.close_process_in ic));
  Alcotest.(check bool) "tokens recorded" true (interp <> []);
  Alcotest.(check (list string)) "emitted simulator = interp"
    (List.sort String.compare interp)
    (List.sort String.compare !lines)

(* Skipped on toolchain-less hosts, same rationale as the engines
   suite's end-to-end emitted-simulator test. *)
let toolchain () =
  Sys.command
    "command -v ocamlfind >/dev/null 2>&1 || command -v ocamlopt >/dev/null 2>&1"
  = 0

let test_emitted_simulator () =
  if not (toolchain ()) then Alcotest.skip ();
  check_emitted_simulator (build ()) ~cycles:40

(* Widths up to 61 bits keep the design in word mode, whose wraps,
   saturation and rounding render inline; a 62-bit input takes the
   int64 rendering.  The compiled engine and the native plugin, which
   renders the word-mode text, agree with the interpreter too, and so
   do the RT kernel and the synthesized gates, whose resizes from a 61-
   or 62-bit source round through an intermediate wider than any
   [Fixed.format]. *)
let test_emitted_resizes () =
  if not (toolchain ()) then Alcotest.skip ();
  List.iter
    (fun (name, in_width, widths, words) ->
      let sys = resizes ~name ~in_width ~widths in
      Alcotest.(check bool) (name ^ ": word mode") words
        (Emit.word_mode_ok (Compiled_sim.lower sys));
      let interp = Flow.simulate sys ~cycles:64 in
      let fallbacks () = (Ocapi_native.stats ()).Ocapi_native.fallbacks in
      let before = fallbacks () in
      List.iter
        (fun engine ->
          Alcotest.(check bool) (name ^ ": " ^ engine ^ " = interp") true
            (Flow.simulate ~engine sys ~cycles:64 = interp))
        [ "compiled"; "native"; "rtl"; "gate" ];
      if words && Ocapi_native.availability () = Ok () then
        Alcotest.(check int) (name ^ ": the plugin ran") before (fallbacks ());
      check_emitted_simulator sys ~cycles:64)
    [
      ("oc_words", 61, [ 1; 2; 31; 32; 61 ], true);
      ("oc_int64", 62, [ 1; 61; 62 ], false);
    ]

let suite =
  [
    Alcotest.test_case "engines agree on all ops" `Quick test_engines_agree;
    Alcotest.test_case "netlist verifies under every option" `Slow
      test_netlist_all_option_combinations;
    Alcotest.test_case "vhdl covers the operator set" `Quick test_vhdl_markers;
    Alcotest.test_case "emitted simulator (all ops)" `Slow test_emitted_simulator;
    Alcotest.test_case "emitted simulator (wraps, saturation, rounding)" `Slow
      test_emitted_resizes;
  ]
