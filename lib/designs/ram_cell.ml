(* Registry: kernel name -> (spec, backing store).  Each [kernel] call
   allocates a fresh backing store captured by its own closures, so two
   systems built from the same factory never share RAM state (domain
   isolation for parallel campaigns); the registry — mutex-guarded, as
   factories may run while another domain synthesizes — only serves the
   by-name [peek]/[clear]/[macro_of_kernel] conveniences and maps a name
   to its most recent instance. *)
type instance = {
  words : int;
  data_fmt : Fixed.format;
  store : Fixed.t array;
}

let registry : (string, instance) Hashtbl.t = Hashtbl.create 8
let registry_mutex = Mutex.create ()

let registry_replace name inst =
  Mutex.lock registry_mutex;
  Hashtbl.replace registry name inst;
  Mutex.unlock registry_mutex

let registry_find name =
  Mutex.lock registry_mutex;
  let r = Hashtbl.find_opt registry name in
  Mutex.unlock registry_mutex;
  r

let kernel ~name ~words ~data_fmt ~addr_fmt =
  let store = Array.make words (Fixed.zero data_fmt) in
  registry_replace name { words; data_fmt; store };
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

let macro_of_kernel (k : Dataflow.Kernel.t) =
  match registry_find k.Dataflow.Kernel.k_name with
  | Some inst ->
    Some
      (Synthesize.Ram_macro
         {
           words = inst.words;
           width = inst.data_fmt.Fixed.width;
           addr_port = "addr";
           wdata_port = "wdata";
           we_port = "we";
           rdata_port = "rdata";
         })
  | None -> None

let peek ~name i =
  match registry_find name with
  | Some inst when i >= 0 && i < inst.words -> Some inst.store.(i)
  | Some _ | None -> None

let clear ~name =
  match registry_find name with
  | Some inst ->
    Array.fill inst.store 0 inst.words (Fixed.zero inst.data_fmt)
  | None -> ()
