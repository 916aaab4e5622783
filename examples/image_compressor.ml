(* Reuse demonstrator: a lossy image compressor front end.

     dune exec examples/image_compressor.exe

   The paper's conclusion lists "an image compressor" among the designs
   the library was being reused for.  This one is a DPCM + quantizer +
   zero-run-length chain over a scanned 32x32 test image:

     predictor   residual = pixel - previous pixel  (registered DPCM)
     quantizer   residual quantized to s5.0 with round-to-nearest,
                 saturating (the lossy step)
     rle         zero runs collapsed; emits (valid, value, run) tokens

   A floating-point-free golden model reconstructs the image from the
   emitted symbols and reports compression ratio and peak error, then
   the design goes through the usual battery. *)

let clk = Clock.default
let pix_fmt = Fixed.unsigned ~width:8 ~frac:0
let res_fmt = Fixed.signed ~width:9 ~frac:0
let q_fmt = Fixed.signed ~width:5 ~frac:0
let run_fmt = Fixed.unsigned ~width:6 ~frac:0

let () =
  (* The test image: a synthetic gradient with a bright square. *)
  let size = 32 in
  let image =
    Array.init (size * size) (fun i ->
        let x = i mod size and y = i / size in
        let v = (x * 3) + (y * 2) in
        let v = if x >= 10 && x < 20 && y >= 12 && y < 22 then v + 90 else v in
        min 255 v)
  in
  (* -- capture -------------------------------------------------------- *)
  let prev = Signal.Reg.create clk "ic_prev" pix_fmt in
  let predictor =
    Sfg.build "ic_predict" (fun b ->
        let x = Sfg.Builder.input b "x" pix_fmt in
        Sfg.Builder.output b "residual"
          (Signal.resize res_fmt Signal.(x -: reg_q prev));
        Sfg.Builder.assign b prev (Signal.resize pix_fmt x))
  in
  let quantizer =
    Sfg.build "ic_quant" (fun b ->
        let r = Sfg.Builder.input b "r" res_fmt in
        Sfg.Builder.output b "q"
          (Signal.resize ~round:Fixed.Round_nearest ~overflow:Fixed.Saturate
             q_fmt (Signal.shift_right r 3)))
  in
  let run_r = Signal.Reg.create clk "ic_run" run_fmt in
  let rle =
    Sfg.build "ic_rle" (fun b ->
        let q = Sfg.Builder.input b "q" q_fmt in
        let is_zero = Signal.(q ==: consti q_fmt 0) in
        let run_full = Signal.(reg_q run_r ==: consti run_fmt 63) in
        let emit = Signal.(or_ (not_ is_zero) run_full) in
        Sfg.Builder.output b "valid" emit;
        Sfg.Builder.output b "value" (Signal.resize q_fmt q);
        Sfg.Builder.output b "run" (Signal.resize run_fmt (Signal.reg_q run_r));
        Sfg.Builder.assign b run_r
          (Signal.mux2 emit
             (Signal.consti run_fmt 0)
             (Signal.resize run_fmt
                Signal.(reg_q run_r +: consti run_fmt 1))))
  in
  let timed name sfg =
    let f = Fsm.create (name ^ "_ctl") in
    let s0 = Fsm.initial f "run" in
    Fsm.(s0 |-- always |+ sfg |-> s0);
    f
  in
  let sys = Cycle_system.create "image_compressor" in
  let c_pred = Cycle_system.add_timed sys "predictor" (timed "pred" predictor) in
  let c_quant = Cycle_system.add_timed sys "quantizer" (timed "quant" quantizer) in
  let c_rle = Cycle_system.add_timed sys "rle" (timed "rle" rle) in
  let pix_in =
    Cycle_system.add_input sys "pixel_in" pix_fmt (fun c ->
        Some (Fixed.of_int pix_fmt (if c < size * size then image.(c) else 0)))
  in
  let p_valid = Cycle_system.add_output sys "valid_out" in
  let p_value = Cycle_system.add_output sys "value_out" in
  let p_run = Cycle_system.add_output sys "run_out" in
  ignore (Cycle_system.connect sys (pix_in, "out") [ (c_pred, "x") ]);
  ignore (Cycle_system.connect sys (c_pred, "residual") [ (c_quant, "r") ]);
  ignore (Cycle_system.connect sys (c_quant, "q") [ (c_rle, "q") ]);
  ignore (Cycle_system.connect sys (c_rle, "valid") [ (p_valid, "in") ]);
  ignore (Cycle_system.connect sys (c_rle, "value") [ (p_value, "in") ]);
  ignore (Cycle_system.connect sys (c_rle, "run") [ (p_run, "in") ]);
  (* -- run and decode ------------------------------------------------- *)
  let cycles = size * size in
  Cycle_system.run sys cycles;
  let hist p =
    match Cycle_system.find_component sys p with
    | Some c -> Cycle_system.output_history sys c
    | None -> []
  in
  let valids = hist "valid_out" and values = hist "value_out" in
  let runs = hist "run_out" in
  (* Symbol stream: (zero-run, quantized value) whenever valid. *)
  let symbols =
    List.filter_map
      (fun (c, v) ->
        if Fixed.is_true v then
          Some
            ( Fixed.to_int (List.assoc c runs),
              Fixed.to_int (List.assoc c values) )
        else None)
      valids
  in
  (* Golden decode: replay the DPCM loop with dequantized residuals. *)
  let reconstructed = Array.make (size * size) 0 in
  let idx = ref 0 and prev_v = ref 0 in
  List.iter
    (fun (run, value) ->
      for _ = 1 to run do
        if !idx < size * size then begin
          reconstructed.(!idx) <- !prev_v;
          incr idx
        end
      done;
      if !idx < size * size then begin
        let v = max 0 (min 255 (!prev_v + (value * 8))) in
        reconstructed.(!idx) <- v;
        prev_v := v;
        incr idx
      end)
    symbols;
  (* Tail of trailing zeros that never flushed. *)
  while !idx < size * size do
    reconstructed.(!idx) <- !prev_v;
    incr idx
  done;
  let peak_err = ref 0 and sum_err = ref 0 in
  Array.iteri
    (fun i v ->
      let e = abs (v - reconstructed.(i)) in
      peak_err := max !peak_err e;
      sum_err := !sum_err + e)
    image;
  Printf.printf "image: %dx%d, symbols emitted: %d (%.1f%% of pixels)\n" size
    size (List.length symbols)
    (100.0 *. float (List.length symbols) /. float (size * size));
  Printf.printf "reconstruction: peak error %d, mean error %.2f (lossy by design)\n"
    !peak_err
    (float !sum_err /. float (size * size));
  (* -- the battery ----------------------------------------------------- *)
  let disagreements = Flow.engines_agree sys ~cycles:200 in
  (match disagreements with
  | [] -> print_endline "all engines agree"
  | l -> List.iter print_endline l);
  let r = Flow.verify_netlist sys ~cycles:200 in
  Printf.printf "netlist verification: %d vectors, %d mismatches\n"
    r.Synthesize.vectors_checked
    (List.length r.Synthesize.mismatches);
  let nl, rep = Synthesize.synthesize sys in
  let _, opt = Netopt.run nl in
  Printf.printf "gates: %d raw, %d after optimization\n"
    rep.Synthesize.total.Netlist.gate_equivalents opt.Netopt.equivalents_after;
  if disagreements <> [] || r.Synthesize.mismatches <> [] then exit 1
