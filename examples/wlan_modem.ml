(* Reuse demonstrator: a wireless-LAN modem (802.11-style DSSS link).

     dune exec examples/wlan_modem.exe

   The paper's conclusion lists "a wireless LAN modem" among the reuse
   targets.  This example builds a DBPSK direct-sequence link, both
   sides, in one system:

     TX: differential encoder -> 11-chip Barker spreader
     RX: Barker correlator (sign-of-sum despreader) -> differential
         decoder

   and checks that the decoded bit stream equals the transmitted one
   (a loopback BER of zero), then runs the engine and synthesis
   battery.  One data bit occupies 11 chip cycles; the chip counter
   lives in the TX and its phase is exported to the RX, as a wire-link
   modem would share its chip clock. *)

let clk = Clock.default
let bit = Fixed.bit_format
let cnt_fmt = Fixed.unsigned ~width:4 ~frac:0
let corr_fmt = Fixed.signed ~width:5 ~frac:0

(* The 11-chip Barker code, +1/-1 as 1/0. *)
let barker = [| true; false; true; true; false; true; true; true; false; false; false |]

let () =
  let barker_rom =
    Signal.Rom.create "barker" bit
      (Array.map (fun b -> Fixed.of_bool b) barker)
  in
  (* -- transmitter ----------------------------------------------------- *)
  let chip_cnt = Signal.Reg.create clk "wl_chip" cnt_fmt in
  let dbit = Signal.Reg.create clk "wl_dbit" bit in
  let tx =
    Sfg.build "wl_tx" (fun b ->
        let data = Sfg.Builder.input b "data" bit in
        let boundary = Signal.(reg_q chip_cnt ==: consti cnt_fmt 10) in
        (* Differential encoding at the bit boundary. *)
        let next_dbit = Signal.(reg_q dbit ^: data) in
        Sfg.Builder.assign b dbit
          (Signal.resize bit (Signal.mux2 boundary next_dbit (Signal.reg_q dbit)));
        Sfg.Builder.assign b chip_cnt
          (Signal.mux2 boundary
             (Signal.consti cnt_fmt 0)
             (Signal.resize cnt_fmt
                Signal.(reg_q chip_cnt +: consti cnt_fmt 1)));
        let chip =
          Signal.(reg_q dbit ^: rom barker_rom (reg_q chip_cnt))
        in
        Sfg.Builder.output b "chip" chip;
        Sfg.Builder.output b "phase" (Signal.resize cnt_fmt (Signal.reg_q chip_cnt)))
  in
  (* -- receiver --------------------------------------------------------- *)
  let acc = Signal.Reg.create clk "wl_acc" corr_fmt in
  let rx_prev = Signal.Reg.create clk "wl_prev" bit in
  let rx_bit = Signal.Reg.create clk "wl_bit" bit in
  let rx_valid = Signal.Reg.create clk "wl_valid" bit in
  let rx =
    Sfg.build "wl_rx" (fun b ->
        let chip = Sfg.Builder.input b "chip" bit in
        let phase = Sfg.Builder.input b "phase" cnt_fmt in
        (* Correlate: +1 when the chip matches the Barker chip. *)
        let expectation = Signal.rom barker_rom phase in
        let agree = Signal.(~:(chip ^: expectation)) in
        let delta =
          Signal.mux2 agree (Signal.consti corr_fmt 1) (Signal.consti corr_fmt (-1))
        in
        let boundary = Signal.(phase ==: consti cnt_fmt 10) in
        let summed = Signal.(resize corr_fmt (reg_q acc +: delta)) in
        Sfg.Builder.assign b acc
          (Signal.resize corr_fmt
             (Signal.mux2 boundary (Signal.consti corr_fmt 0) summed));
        (* At the boundary the despread symbol is the sign of the sum;
           differential decode against the previous symbol. *)
        let symbol = Signal.(summed >: consti corr_fmt 0) in
        Sfg.Builder.assign b rx_prev
          (Signal.resize bit (Signal.mux2 boundary symbol (Signal.reg_q rx_prev)));
        Sfg.Builder.assign b rx_bit
          (Signal.resize bit
             (Signal.mux2 boundary
                Signal.(symbol ^: reg_q rx_prev)
                (Signal.reg_q rx_bit)));
        Sfg.Builder.assign b rx_valid (Signal.resize bit boundary);
        Sfg.Builder.output b "bit_out" (Signal.reg_q rx_bit);
        Sfg.Builder.output b "valid_out" (Signal.reg_q rx_valid))
  in
  let timed name sfg =
    let f = Fsm.create (name ^ "_ctl") in
    let s0 = Fsm.initial f "run" in
    Fsm.(s0 |-- always |+ sfg |-> s0);
    f
  in
  let sys = Cycle_system.create "wlan_modem" in
  let c_tx = Cycle_system.add_timed sys "tx" (timed "tx" tx) in
  let c_rx = Cycle_system.add_timed sys "rx" (timed "rx" rx) in
  let rng = Random.State.make [| 4711 |] in
  let data = Array.init 64 (fun _ -> Random.State.bool rng) in
  let d_in =
    Cycle_system.add_input sys "data_in" bit (fun c ->
        (* One data bit per 11-chip period. *)
        Some (Fixed.of_bool data.(c / 11 mod 64)))
  in
  let p_bit = Cycle_system.add_output sys "rx_bit" in
  let p_valid = Cycle_system.add_output sys "rx_valid" in
  ignore (Cycle_system.connect sys (d_in, "out") [ (c_tx, "data") ]);
  ignore (Cycle_system.connect sys (c_tx, "chip") [ (c_rx, "chip") ]);
  ignore (Cycle_system.connect sys (c_tx, "phase") [ (c_rx, "phase") ]);
  ignore (Cycle_system.connect sys (c_rx, "bit_out") [ (p_bit, "in") ]);
  ignore (Cycle_system.connect sys (c_rx, "valid_out") [ (p_valid, "in") ]);
  (* -- loopback BER ----------------------------------------------------- *)
  let n_bits = 40 in
  let cycles = (n_bits + 3) * 11 in
  Cycle_system.run sys cycles;
  let hist p =
    match Cycle_system.find_component sys p with
    | Some c -> Cycle_system.output_history sys c
    | None -> []
  in
  let valids = hist "rx_valid" and bits = hist "rx_bit" in
  let decoded =
    List.filter_map
      (fun (c, v) ->
        if Fixed.is_true v then
          Some (c, Fixed.is_true (List.assoc c bits))
        else None)
      valids
  in
  (* The first decoded symbol has no differential reference; skip it and
     align against the transmitted stream. *)
  let errors = ref 0 and compared = ref 0 in
  List.iteri
    (fun i (_, b) ->
      if i >= 1 && i - 1 < n_bits then begin
        incr compared;
        if b <> data.(i - 1) then incr errors
      end)
    decoded;
  Printf.printf "DSSS loopback: %d bits decoded, %d compared, %d errors\n"
    (List.length decoded) !compared !errors;
  (* -- battery ----------------------------------------------------------- *)
  let disagreements = Flow.engines_agree sys ~cycles:150 in
  (match disagreements with
  | [] -> print_endline "all engines agree"
  | l -> List.iter print_endline l);
  let r = Synthesize.verify sys ~cycles:150 in
  Printf.printf "netlist verification: %d vectors, %d mismatches\n"
    r.Synthesize.vectors_checked
    (List.length r.Synthesize.mismatches);
  let nl, rep = Synthesize.synthesize sys in
  let _, opt = Netopt.run nl in
  Printf.printf "gates: %d raw, %d optimized\n"
    rep.Synthesize.total.Netlist.gate_equivalents opt.Netopt.equivalents_after;
  (* A waveform for the curious. *)
  (match
     Ocapi_obs.File.publish "_generated/wlan_modem.vcd" (Vcd.record sys ~cycles:120)
   with
  | Ok () -> print_endline "wrote _generated/wlan_modem.vcd"
  | Error e ->
    prerr_endline e;
    exit 1);
  if disagreements <> [] || r.Synthesize.mismatches <> [] then exit 1
