(* Each [kernel] call allocates a fresh backing store captured by its
   own closures, so two systems built from the same factory never share
   RAM state (domain isolation for parallel campaigns). *)
let kernel ~name ~words ~data_fmt ~addr_fmt =
  let store = Array.make words (Fixed.zero data_fmt) in
  (* Writes are staged by the behaviour and applied by the commit hook:
     the event-driven RT engine may run the behaviour several times per
     cycle while signals settle, and only the settled staging counts. *)
  let pending = ref None in
  Dataflow.Kernel.create name
    ~model:
      (Dataflow.Kernel.Ram_model
         {
           words;
           data_fmt;
           addr_port = "addr";
           wdata_port = "wdata";
           we_port = "we";
           rdata_port = "rdata";
         })
    ~formats:
      [
        ("addr", addr_fmt);
        ("wdata", data_fmt);
        ("we", Fixed.bit_format);
        ("rdata", data_fmt);
      ]
    ~commit:(fun () ->
      match !pending with
      | Some (addr, v) ->
        store.(addr) <- v;
        pending := None
      | None -> ())
    ~reset:(fun () ->
      pending := None;
      Array.fill store 0 words (Fixed.zero data_fmt))
    ~snapshot:(fun () ->
      let copy = Array.copy store and staged = !pending in
      let same_write (a, v) (a', v') = a = a' && Fixed.equal v v' in
      {
        Dataflow.Kernel.sn_restore =
          (fun () ->
            Array.blit copy 0 store 0 words;
            pending := staged);
        sn_matches =
          (fun () ->
            Option.equal same_write !pending staged
            && Array.for_all2 Fixed.equal store copy);
      })
    ~inputs:[ ("addr", 1); ("wdata", 1); ("we", 1) ]
    ~outputs:[ ("rdata", 1) ]
    (fun consumed ->
      let one port =
        match List.assoc_opt port consumed with
        | Some [ v ] -> v
        | Some _ | None ->
          Ocapi_error.fail Ocapi_error.Internal ~engine:"design" ~construct:name
            "ram %s: bad port %s" name port
      in
      let addr = Fixed.to_int (one "addr") mod words in
      let addr = if addr < 0 then addr + words else addr in
      let out = store.(addr) in
      if Fixed.is_true (one "we") then
        pending :=
          Some
            ( addr,
              Fixed.resize ~round:Fixed.Truncate ~overflow:Fixed.Wrap data_fmt
                (one "wdata") )
      else pending := None;
      [ ("rdata", [ out ]) ])

let macro_of_kernel = Synthesize.macro_of_model
