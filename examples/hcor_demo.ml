(* HCOR demo: the DECT header correlator processor hunting for the
   S-field sync word in a noisy multipath burst, then emitting the
   payload — Table 1's first design, end to end.

     dune exec examples/hcor_demo.exe *)

let () =
  (* The "Matlab level": burst, channel, receiver quantization. *)
  let bits = Dect_stimuli.burst ~seed:2026 () in
  let tx = Dect_stimuli.transmit bits in
  let rx = Dect_stimuli.channel ~taps:[| 1.0; 0.15; -0.05 |] ~snr_db:22.0 ~seed:2026 tx in
  let samples =
    Dect_stimuli.quantize Hcor.sample_format (Array.map (fun x -> x /. 2.0) rx)
  in
  Printf.printf "burst: %d bits (16 preamble + 16 sync + 388 payload)\n"
    (Array.length bits);
  (* The chip. *)
  let h = Hcor.create ~stimulus:(Hcor.sample_stimulus samples) () in
  let sys = h.Hcor.system in
  let n = Array.length samples + 8 in
  Cycle_system.run sys n;
  let hist p =
    match Cycle_system.find_component sys p with
    | Some c -> Cycle_system.output_history sys c
    | None -> []
  in
  (* Lock instant vs the floating-point golden receiver. *)
  let locked = hist "locked" in
  (match List.find_opt (fun (_, v) -> Fixed.is_true v) locked with
  | Some (c, _) ->
    Printf.printf "HCOR locked at cycle %d " c;
    (match Dect_stimuli.find_sync (Dect_stimuli.slice rx) ~threshold:14 with
    | Some g -> Printf.printf "(golden model: sync ends at sample %d)\n" g
    | None -> print_newline ())
  | None -> print_endline "HCOR never locked");
  (* Peak correlation. *)
  let corr = hist "corr" in
  let peak = List.fold_left (fun acc (_, v) -> max acc (Fixed.to_int v)) 0 corr in
  Printf.printf "peak hard correlation: %d / 16\n" peak;
  (* Payload bit error rate against the transmitted payload. *)
  let locked_at = Array.make n false in
  List.iter (fun (c, v) -> if c < n then locked_at.(c) <- Fixed.is_true v) locked;
  let emitted = List.filter (fun (c, _) -> c < n && locked_at.(c)) (hist "bit_out") in
  let payload = Array.sub bits 32 388 in
  let errors = ref 0 in
  List.iteri
    (fun i (_, v) ->
      if i < Array.length payload && Fixed.is_true v <> payload.(i) then incr errors)
    emitted;
  Printf.printf "payload: %d bits emitted, %d errors\n" (List.length emitted) !errors;
  (* The full back end: synthesis, gate count, gate-level verification. *)
  let _, rep = Synthesize.synthesize sys in
  Printf.printf "synthesized: %d gate-equivalents (paper: ~6 Kgates)\n"
    rep.Synthesize.total.Netlist.gate_equivalents;
  let r = Flow.verify_netlist sys ~cycles:150 in
  Printf.printf "netlist vs reference: %d vectors, %d mismatches\n"
    r.Synthesize.vectors_checked
    (List.length r.Synthesize.mismatches);
  if r.Synthesize.mismatches <> [] then exit 1
