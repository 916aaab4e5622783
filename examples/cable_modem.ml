(* Reuse demonstrator: an upstream cable-modem transmitter.

     dune exec examples/cable_modem.exe

   The paper's conclusion notes the library "is currently being reused
   for several demonstrator designs, including an upstream cable
   modem".  This example builds one with the same public API: an x^15
   scrambler, a QPSK mapper and two 4-tap pulse-shaping FIRs, then runs
   the usual battery — engine agreement, VHDL generation, synthesis and
   gate-level verification. *)

let clk = Clock.default
let bit = Fixed.bit_format
let iq_fmt = Fixed.signed ~width:10 ~frac:6

let bit_of e i = Signal.resize bit (Signal.shift_right e i)

let () =
  (* Scrambler: x^15 + x^14 + 1, self-synchronizing transmit side. *)
  let lfsr = Signal.Reg.create clk "cm_lfsr" ~init:(Fixed.of_int (Fixed.unsigned ~width:15 ~frac:0) 0x5AA5) (Fixed.unsigned ~width:15 ~frac:0) in
  let scrambler =
    Sfg.build "cm_scramble" (fun b ->
        let d = Sfg.Builder.input b "d" bit in
        let q = Signal.reg_q lfsr in
        let fb = Signal.(bit_of q 14 ^: bit_of q 13) in
        let out = Signal.(d ^: fb) in
        Sfg.Builder.assign_resized b lfsr
          Signal.(resize (Fixed.unsigned ~width:15 ~frac:0) (shift_left q 1) |: out);
        Sfg.Builder.output b "sbit" out)
  in
  (* QPSK mapper: pairs of bits to (I, Q) in {-0.707, +0.707}. *)
  let half = Signal.Reg.create clk "cm_half" bit in
  let last = Signal.Reg.create clk "cm_last" bit in
  let i_r = Signal.Reg.create clk "cm_i" iq_fmt in
  let q_r = Signal.Reg.create clk "cm_q" iq_fmt in
  let mapper =
    Sfg.build "cm_map" (fun b ->
        let s = Sfg.Builder.input b "s" bit in
        let amp = Signal.constf iq_fmt 0.703125 in
        let namp = Signal.constf iq_fmt (-0.703125) in
        let sym v = Signal.mux2 v amp namp in
        (* Even bits load I-candidate; odd bits commit both rails. *)
        Sfg.Builder.assign b last s;
        Sfg.Builder.assign b half (Signal.not_ (Signal.reg_q half));
        Sfg.Builder.assign b i_r
          (Signal.resize iq_fmt
             (Signal.mux2 (Signal.reg_q half) (sym (Signal.reg_q last))
                (Signal.reg_q i_r)));
        Sfg.Builder.assign b q_r
          (Signal.resize iq_fmt
             (Signal.mux2 (Signal.reg_q half) (sym s) (Signal.reg_q q_r)));
        Sfg.Builder.output b "i_sym" (Signal.resize iq_fmt (Signal.reg_q i_r));
        Sfg.Builder.output b "q_sym" (Signal.resize iq_fmt (Signal.reg_q q_r)))
  in
  (* Pulse shaping: 4-tap FIR per rail (shared code, two instances). *)
  let shaper rail =
    let taps = [| 0.25; 0.75; 0.75; 0.25 |] in
    let w =
      Array.init 4 (fun i ->
          Signal.Reg.create clk (Printf.sprintf "cm_%s_w%d" rail i) iq_fmt)
    in
    Sfg.build ("cm_shape_" ^ rail) (fun b ->
        let x = Sfg.Builder.input b "x" iq_fmt in
        let n = Array.init 4 (fun i -> if i = 0 then x else Signal.reg_q w.(i - 1)) in
        Array.iteri (fun i r -> Sfg.Builder.assign_resized b r n.(i)) w;
        let terms =
          Array.to_list
            (Array.mapi (fun i xi -> Signal.(xi *: constf iq_fmt taps.(i))) n)
        in
        let sum = List.fold_left Signal.add (List.hd terms) (List.tl terms) in
        Sfg.Builder.output b "y"
          (Signal.resize ~round:Fixed.Round_nearest ~overflow:Fixed.Saturate
             iq_fmt sum))
  in
  let timed name sfg =
    let f = Fsm.create (name ^ "_ctl") in
    let s0 = Fsm.initial f "run" in
    Fsm.(s0 |-- always |+ sfg |-> s0);
    f
  in
  let sys = Cycle_system.create "cable_modem" in
  let c_scr = Cycle_system.add_timed sys "scrambler" (timed "scr" scrambler) in
  let c_map = Cycle_system.add_timed sys "mapper" (timed "map" mapper) in
  let c_shi = Cycle_system.add_timed sys "shaper_i" (timed "shi" (shaper "i")) in
  let c_shq = Cycle_system.add_timed sys "shaper_q" (timed "shq" (shaper "q")) in
  let rng = Random.State.make [| 31 |] in
  let data = Array.init 512 (fun _ -> Random.State.bool rng) in
  let d_in =
    Cycle_system.add_input sys "data_in" bit (fun c ->
        Some (Fixed.of_bool data.(c mod 512)))
  in
  let p_i = Cycle_system.add_output sys "i_out" in
  let p_q = Cycle_system.add_output sys "q_out" in
  ignore (Cycle_system.connect sys (d_in, "out") [ (c_scr, "d") ]);
  ignore (Cycle_system.connect sys (c_scr, "sbit") [ (c_map, "s") ]);
  ignore (Cycle_system.connect sys (c_map, "i_sym") [ (c_shi, "x") ]);
  ignore (Cycle_system.connect sys (c_map, "q_sym") [ (c_shq, "x") ]);
  ignore (Cycle_system.connect sys (c_shi, "y") [ (p_i, "in") ]);
  ignore (Cycle_system.connect sys (c_shq, "y") [ (p_q, "in") ]);
  Format.printf "checks: %a@." Flow.pp_check_report (Flow.check sys);
  let disagreements = Flow.engines_agree sys ~cycles:200 in
  (match disagreements with
  | [] -> print_endline "all engines agree over 200 cycles"
  | l -> List.iter print_endline l);
  let hist = Flow.simulate sys ~cycles:24 in
  print_string "I rail: ";
  List.iter
    (fun (_, v) -> Printf.printf "%+.2f " (Fixed.to_float v))
    (List.assoc "i_out" hist);
  print_newline ();
  let _, rep = Synthesize.synthesize sys in
  Printf.printf "synthesized: %d gate-equivalents across %d components\n"
    rep.Synthesize.total.Netlist.gate_equivalents
    (List.length rep.Synthesize.components);
  let r = Synthesize.verify sys ~cycles:80 in
  Printf.printf "netlist verification: %d vectors, %d mismatches\n"
    r.Synthesize.vectors_checked
    (List.length r.Synthesize.mismatches);
  if disagreements <> [] || r.Synthesize.mismatches <> [] then exit 1
