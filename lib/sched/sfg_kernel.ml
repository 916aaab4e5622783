let kernel_of_sfg sfg =
  let inputs = List.map (fun i -> (Signal.Input.name i, 1)) (Sfg.inputs sfg) in
  let outputs = List.map (fun (p, _) -> (p, 1)) (Sfg.outputs sfg) in
  let formats =
    List.map (fun i -> (Signal.Input.name i, Signal.Input.fmt i)) (Sfg.inputs sfg)
    @ List.map (fun (p, e) -> (p, Signal.fmt e)) (Sfg.outputs sfg)
  in
  let regs = Sfg.regs_written sfg in
  let reset () = List.iter Signal.Reg.reset (Sfg.regs_read sfg @ regs) in
  Dataflow.Kernel.create (Sfg.name sfg) ~formats ~reset ~inputs ~outputs
    (fun consumed ->
      let env = Signal.Env.create () in
      List.iter
        (fun i ->
          match List.assoc_opt (Signal.Input.name i) consumed with
          | Some [ v ] -> Signal.Env.bind env i v
          | Some _ | None ->
            Ocapi_error.fail Ocapi_error.Internal ~engine:"sched"
              ~construct:(Sfg.name sfg) "kernel %s: missing token on %s"
              (Sfg.name sfg) (Signal.Input.name i))
        (Sfg.inputs sfg);
      let out = Sfg.fire sfg env in
      (* One firing = one clock cycle: commit the register assigns. *)
      List.iter Signal.Reg.commit regs;
      List.map (fun (p, v) -> (p, [ v ])) out)
