(* DECT transceiver demo: the paper's 75 Kgate driver design.

     dune exec examples/dect_demo.exe

   Runs a noisy multipath burst through the full fig 5 architecture
   (VLIW controller, 22 datapaths, 7 RAM cells), compares the equalizer
   output and sliced bits against the fixed-point golden model,
   demonstrates the fig 2 hold exception, and synthesizes the chip. *)

let ll = Dect_transceiver.loop_length

let build_samples ~symbols ~seed =
  let bits = Dect_stimuli.burst ~seed () in
  let tx = Dect_stimuli.transmit (Array.sub bits 0 symbols) in
  let rx = Dect_stimuli.channel ~taps:[| 1.0; 0.45; -0.2 |] ~snr_db:30.0 ~seed tx in
  let cycles = (symbols + 2) * ll in
  let samples = Array.make cycles (Fixed.zero Dect_transceiver.sample_format) in
  Array.iteri
    (fun n v ->
      let c = (ll * n) + 1 in
      if c < cycles then
        samples.(c) <-
          Fixed.of_float ~overflow:Fixed.Saturate Dect_transceiver.sample_format
            (v /. 2.0))
    rx;
  (samples, cycles, bits)

let () =
  let symbols = 50 in
  let samples, cycles, _ = build_samples ~symbols ~seed:98 in
  let d =
    Dect_transceiver.create ~stimulus:(Dect_transceiver.sample_stimulus samples) ()
  in
  let sys = d.Dect_transceiver.system in
  Printf.printf "architecture: %d datapaths (%s), %d RAM cells, %d-word microprogram\n"
    (List.length d.Dect_transceiver.instruction_counts)
    (String.concat ", "
       (List.map
          (fun (n, c) -> Printf.sprintf "%s:%d" n c)
          (List.filteri (fun i _ -> i < 4) d.Dect_transceiver.instruction_counts)
       @ [ "..." ]))
    (List.length d.Dect_transceiver.ram_names)
    d.Dect_transceiver.program_length;
  Cycle_system.run sys cycles;
  let hist p =
    match Cycle_system.find_component sys p with
    | Some c -> Cycle_system.output_history sys c
    | None -> []
  in
  (* Equalizer output vs the golden fixed-point model. *)
  let golden = Dect_transceiver.golden_reference samples ~symbols in
  let soft = hist "soft_out" and bits = hist "bit_out" in
  let ok = ref 0 and bad = ref 0 in
  for n = 0 to symbols - 3 do
    match List.assoc_opt ((ll * (n + 1)) + 4) soft with
    | Some v ->
      if Fixed.equal v golden.Dect_transceiver.g_soft.(n) then incr ok
      else incr bad
    | None -> incr bad
  done;
  Printf.printf "equalizer output vs golden: %d/%d symbols exact\n" !ok (!ok + !bad);
  let okb = ref 0 in
  for n = 0 to symbols - 3 do
    match List.assoc_opt ((ll * (n + 1)) + 5) bits with
    | Some v -> if Fixed.is_true v = golden.Dect_transceiver.g_bits.(n) then incr okb
    | None -> ()
  done;
  Printf.printf "sliced decisions vs golden: %d/%d exact\n" !okb (symbols - 2);
  (* The hold exception (fig 2): a held run is the exact delayed run. *)
  let const_stim _ = Some (Fixed.of_float Dect_transceiver.sample_format 0.4) in
  let d1 = Dect_transceiver.create ~stimulus:const_stim () in
  let d2 =
    Dect_transceiver.create ~hold:(fun c -> c >= 50 && c < 58) ~stimulus:const_stim ()
  in
  Cycle_system.run d1.Dect_transceiver.system 240;
  Cycle_system.run d2.Dect_transceiver.system 248;
  let h1 =
    match Cycle_system.find_component d1.Dect_transceiver.system "crc_probe" with
    | Some c -> Cycle_system.output_history d1.Dect_transceiver.system c
    | None -> []
  in
  let h2 =
    match Cycle_system.find_component d2.Dect_transceiver.system "crc_probe" with
    | Some c -> Cycle_system.output_history d2.Dect_transceiver.system c
    | None -> []
  in
  let delayed_exactly =
    List.for_all
      (fun c ->
        match List.assoc_opt c h1, List.assoc_opt (c + 8) h2 with
        | Some a, Some b -> Fixed.equal a b
        | _ -> false)
      (List.init 100 (fun i -> i + 100))
  in
  Printf.printf "hold exception: 8-cycle hold => stream delayed exactly 8 cycles: %b\n"
    delayed_exactly;
  (* Synthesis of the full chip. *)
  let _, rep = Synthesize.synthesize sys in
  Printf.printf
    "synthesized: %d gate-equivalents (comb %d, %d flip-flops, %d ROM bits, %d RAM bits)\n"
    rep.Synthesize.total.Netlist.gate_equivalents
    rep.Synthesize.total.Netlist.combinational
    rep.Synthesize.total.Netlist.flip_flops rep.Synthesize.total.Netlist.rom_bits
    rep.Synthesize.total.Netlist.ram_bits;
  Printf.printf "  (paper: 75 Kgates in 0.7 um CMOS; same order of magnitude)\n";
  (* Operator sharing in the 57-instruction datapath. *)
  (match
     List.find_opt
       (fun c -> c.Synthesize.cr_name = "dp_equ")
       rep.Synthesize.components
   with
  | Some c ->
    Printf.printf "dp_equ (57 instructions): %d shareable ops bound to %d units\n"
      c.Synthesize.cr_ops_before_sharing
      (List.fold_left (fun a (_, n) -> a + n) 0 c.Synthesize.cr_shared_units)
  | None -> ());
  (* Gate-level verification with recorded vectors. *)
  let d3, _, _ = (fun () -> let s, c, b = build_samples ~symbols:6 ~seed:98 in
                   (Dect_transceiver.create ~stimulus:(Dect_transceiver.sample_stimulus s) (), c, b)) () in
  let r = Synthesize.verify d3.Dect_transceiver.system ~cycles:100 in
  Printf.printf "netlist vs reference: %d vectors, %d mismatches\n"
    r.Synthesize.vectors_checked
    (List.length r.Synthesize.mismatches);
  if r.Synthesize.mismatches <> [] then exit 1
