let hcor () =
  let bits = Dect_stimuli.burst ~seed:1 () in
  let tx = Dect_stimuli.transmit bits in
  let rx = Dect_stimuli.channel ~snr_db:25.0 ~seed:1 tx in
  let samples =
    Dect_stimuli.quantize Hcor.sample_format (Array.map (fun x -> x /. 2.0) rx)
  in
  (Hcor.create ~stimulus:(Hcor.sample_stimulus samples) ()).Hcor.system

let dect () =
  let stim c =
    Some
      (Fixed.of_float ~overflow:Fixed.Saturate Dect_transceiver.sample_format
         (sin (float c *. 0.37) /. 2.2))
  in
  (Dect_transceiver.create ~stimulus:stim ()).Dect_transceiver.system

let rs () =
  (Rs_codec.create
     ~data_stimulus:(Rs_codec.data_stimulus ())
     ~err_stimulus:(Rs_codec.err_stimulus ()) ())
    .Rs_codec.system

let cpu () =
  (Acc_cpu.create ~io_stimulus:(Acc_cpu.io_stimulus ()) ()).Acc_cpu.system

let designs = [ ("hcor", hcor); ("dect", dect); ("rs", rs); ("cpu", cpu) ]
let names = List.map fst designs
let build name = Option.map (fun f -> f ()) (List.assoc_opt name designs)

let macro_of_kernel = function
  | "dect" -> Dect_transceiver.macro_of_kernel
  | "cpu" -> Ram_cell.macro_of_kernel
  | _ -> fun _ -> None
