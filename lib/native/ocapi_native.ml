(* The native (dynlinked) engine: the paper's "regenerated" simulator,
   actually compiled.  [Emit.emit_plugin] renders the design as an OCaml
   module over unboxed int words; this host compiles it out-of-process with
   [ocamlfind ocamlopt -shared], loads the .cmxs with
   [Dynlink.loadfile_private] once per process, and wires an instance
   of the plugin's factory into a full [Ocapi_engine.session] per
   session.  Artifacts are cached on disk keyed by elaboration key +
   emitter version, so compilation is one-time per structure.  A design
   whose mantissas the width analysis cannot prove to fit an [int], and
   every failure path, degrade to the compiled instance of the same
   lowered program behind the same session surface. *)

let engine_name = "native"

(* --- always-on statistics ------------------------------------------------- *)

(* Not gated on [Ocapi_obs.enabled]: tests use these to prove the true
   native path ran (the fallback would otherwise silently mask emission
   bugs) and that warm runs performed zero compiler invocations. *)

type stats = {
  compiles : int;
  cache_hits : int;
  corrupt_misses : int;
  fallbacks : int;
  loads : int;
  reuses : int;
  verdicts : int;
}

let n_compiles = ref 0
let n_cache_hits = ref 0
let n_corrupt = ref 0
let n_fallbacks = ref 0
let n_loads = ref 0
let n_reuses = ref 0
let n_verdicts = ref 0

let stats () =
  {
    compiles = !n_compiles;
    cache_hits = !n_cache_hits;
    corrupt_misses = !n_corrupt;
    fallbacks = !n_fallbacks;
    loads = !n_loads;
    reuses = !n_reuses;
    verdicts = !n_verdicts;
  }

let reset_stats () =
  List.iter (fun n -> n := 0)
    [ n_compiles; n_cache_hits; n_corrupt; n_fallbacks; n_loads; n_reuses; n_verdicts ]

let bump counter obs_name =
  incr counter;
  if Ocapi_obs.enabled () then Ocapi_obs.count ("native." ^ obs_name)

(* --- availability --------------------------------------------------------- *)

let diag msg =
  Ocapi_error.make Ocapi_error.Native_unavailable ~severity:Ocapi_error.Warning
    ~engine:engine_name msg

let disabled () =
  match Sys.getenv_opt "OCAPI_NATIVE_DISABLE" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let find_on_path exe =
  match Sys.getenv_opt "PATH" with
  | None -> None
  | Some path ->
    String.split_on_char ':' path
    |> List.find_map (fun d ->
           if d = "" then None
           else
             let p = Filename.concat d exe in
             if Sys.file_exists p then Some p else None)

let abi_cmi = "ocapi_native_abi.cmi"

(* The plugin is compiled against the ABI's .cmi from this build tree
   (so Dynlink's interface-digest check is against the very module the
   host links).  Walk up from the executable and the cwd towards a dune
   _build root; [OCAPI_NATIVE_CMI_DIR] overrides for installed use. *)
let cmi_dir () =
  let candidate d = Sys.file_exists (Filename.concat d abi_cmi) in
  match Sys.getenv_opt "OCAPI_NATIVE_CMI_DIR" with
  | Some d -> if candidate d then Some d else None
  | None ->
    let objs = Filename.concat "native_abi" ".ocapi_native_abi.objs" in
    let rels =
      [
        Filename.concat "_build"
          (Filename.concat "default" (Filename.concat "lib" objs));
        Filename.concat "lib" objs;
      ]
      |> List.map (fun d -> Filename.concat d "byte")
    in
    let rec walk base n =
      if n > 8 then None
      else
        match
          List.find_opt (fun rel -> candidate (Filename.concat base rel)) rels
        with
        | Some rel -> Some (Filename.concat base rel)
        | None ->
          let parent = Filename.dirname base in
          if parent = base then None else walk parent (n + 1)
    in
    let roots = [ Filename.dirname Sys.executable_name; Sys.getcwd () ] in
    List.fold_left
      (fun acc r -> match acc with Some _ -> acc | None -> walk r 0)
      None roots

(* What a plugin compile needs of the host: [ocamlfind], the ABI
   interface's directory and that interface's digest, which names the
   cached artifacts. *)
type toolchain = { ocamlfind : string; cmi : string; cmi_digest : string }

let probe_toolchain () =
  if not Dynlink.is_native then
    Error (diag "host runs bytecode; native Dynlink is unavailable")
  else
    match find_on_path "ocamlfind" with
    | None -> Error (diag "no ocamlfind on PATH; cannot compile plugins")
    | Some ocamlfind -> begin
      match cmi_dir () with
      | None ->
        Error
          (diag
             "plugin ABI interface (ocapi_native_abi.cmi) not found; set \
              OCAPI_NATIVE_CMI_DIR")
      | Some cmi ->
        let cmi_digest =
          try Digest.to_hex (Digest.file (Filename.concat cmi abi_cmi))
          with Sys_error _ -> "no-cmi"
        in
        Ok { ocamlfind; cmi; cmi_digest }
    end

(* The toolchain is probed once per process (two domains racing on the
   first session both find the same one); the kill switch is read on
   every session, as tests flip it while the process runs. *)
let probed = Atomic.make None

let toolchain () =
  if disabled () then
    Error (diag "native engine disabled by OCAPI_NATIVE_DISABLE")
  else
    match Atomic.get probed with
    | Some t -> t
    | None ->
      let t = probe_toolchain () in
      Atomic.set probed (Some t);
      t

let availability () = Result.map ignore (toolchain ())

(* --- artifact cache ------------------------------------------------------- *)

(* Always-on disk cache, independent of Flow.Cache being enabled, so a
   warm second process skips the compiler entirely.  Defaults to a
   per-user directory under the system temp dir; [OCAPI_NATIVE_CACHE_DIR]
   relocates it (tests use a fresh directory to force a cold start). *)
let cache_dir () =
  match Sys.getenv_opt "OCAPI_NATIVE_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "ocapi-native-cache"

(* Plugin loads hand off through one global slot in [Ocapi_native_abi],
   and engine sweeps create sessions from several domains at once, so
   the whole locate-compile-load path, and [factories], are serialized
   by this mutex. *)
let load_mutex = Mutex.create ()

(* Loaded plugin factories, by artifact path: the cache directory and
   the cache key.  Dynlinked code is never unmapped, so a factory, once
   loaded, stays: forgetting it would save one closure and cost a
   second load of the same file. *)
let factories : (string, unit -> Ocapi_native_abi.plugin) Hashtbl.t =
  Hashtbl.create 8

(* The elaboration keys whose programs the emitter refused: a lowered
   program is a function of its key, and so is whether its mantissas
   fit unboxed ints.  Such a design is a fallback before the factory
   table and the disk are consulted. *)
let rejected : (string, unit) Hashtbl.t = Hashtbl.create 8

let rejection = "a mantissa may not fit an unboxed int; no plugin emitted"

let clear_disk_cache () =
  let dir = cache_dir () in
  Mutex.protect load_mutex (fun () ->
      Hashtbl.filter_map_inplace
        (fun path create -> if Filename.dirname path = dir then None else Some create)
        factories);
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun f ->
        if String.length f >= 12 && String.sub f 0 12 = "ocapi_plugin" then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir)

let cache_key ~elaboration tc =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            elaboration;
            string_of_int Emit.emitter_version;
            Sys.ocaml_version;
            tc.cmi_digest;
          ]))

(* --- out-of-process compilation and loading ------------------------------- *)

exception Fall of Ocapi_error.t

let compile_cmxs tc ~src ~out =
  let native_objs = Filename.concat (Filename.dirname tc.cmi) "native" in
  let incs =
    Printf.sprintf "-I %s%s" (Filename.quote tc.cmi)
      (if Sys.file_exists native_objs then
         " -I " ^ Filename.quote native_objs
       else "")
  in
  let log = out ^ ".log" in
  let cmd =
    Printf.sprintf "%s ocamlopt -shared -w -a %s %s %s -o %s > %s 2>&1"
      (Filename.quote tc.ocamlfind)
      (String.concat " " Emit.plugin_flags)
      incs (Filename.quote src) (Filename.quote out) (Filename.quote log)
  in
  let rc = Sys.command cmd in
  if rc <> 0 then begin
    let detail = Result.value (Ocapi_obs.File.read log) ~default:"" in
    let detail =
      if String.length detail > 400 then String.sub detail 0 400 else detail
    in
    raise
      (Fall (diag (Printf.sprintf "plugin compile failed (rc %d): %s" rc detail)))
  end

(* Dynlink [path] and take the factory it registers, if its instances
   have the shape of [pg]'s store; a plugin of another design under
   this key would not. *)
let load path (pg : Compiled_sim.program) =
  Ocapi_native_abi.clear ();
  let fits (p : Ocapi_native_abi.plugin) =
    Array.length p.p_values = pg.pg_slots
    && Array.length p.p_states = Array.length pg.pg_comps
    && Array.length p.p_rams = Array.length pg.pg_rams
    && Array.length p.p_kernels = Array.length pg.pg_kernels
  in
  let create =
    try
      Dynlink.loadfile_private path;
      match Ocapi_native_abi.take () with
      | Some create when fits (create ()) -> Some create
      | Some _ | None -> None
    with _ -> None
  in
  if Option.is_some create then bump n_loads "loads";
  create

(* Never reset: the loader serves a path it mapped before by name. *)
let compiles_begun = ref 0

(* Emit and compile [sys]'s plugin under a name of its own (pid and
   counter), load it from there, and only then rename it to [path]: a
   cached artifact is never written in place, no two compiles share a
   file, and the loader keeps the file it mapped under any name.  The
   rename stays outside [Ocapi_obs.File]: the compiler, not this
   process, wrote the file.  The emitter runs the width analysis, the
   only one a plugin of [path] needs: its refusal is remembered under
   [elaboration] and written nowhere. *)
let compile tc ~path ~elaboration sys pg =
  let t_compile = Ocapi_obs.span_begin () in
  bump n_verdicts "verdicts";
  let text =
    match Emit.emit_plugin sys pg with
    | text -> text
    | exception Ocapi_error.Error { e_code = Ocapi_error.Unsupported; _ } ->
      Hashtbl.replace rejected elaboration ();
      raise (Fall (diag rejection))
  in
  incr compiles_begun;
  let stem =
    Printf.sprintf "%s_%d_%d" (Filename.remove_extension path) (Unix.getpid ())
      !compiles_begun
  in
  let src = stem ^ ".ml" and out = stem ^ ".cmxs" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun ext -> try Sys.remove (stem ^ ext) with Sys_error _ -> ())
        [ ".ml"; ".cmi"; ".cmx"; ".o"; ".cmxs"; ".cmxs.log" ])
    (fun () ->
      (match Ocapi_obs.File.publish src text with
      | Ok () -> ()
      | Error msg -> raise (Fall (diag ("cannot write the plugin source: " ^ msg))));
      compile_cmxs tc ~src ~out;
      bump n_compiles "compiles";
      Ocapi_obs.span_end ~cat:"native"
        ~args:[ ("path", Ocapi_obs.Json.String path) ]
        "native.compile" t_compile;
      match load out pg with
      | Some create ->
        (try Sys.rename out path with Sys_error _ -> ());
        create
      | None -> raise (Fall (diag "freshly compiled plugin failed to load")))

(* The factory of the artifact at [path]: loaded from the disk cache,
   else compiled.  Runs under the load mutex.  A cached file that does
   not load, registers nothing or does not fit is a counted miss,
   deleted and recompiled.  Raises [Fall] on environmental failures
   (the caller degrades to the interpreted program). *)
let obtain tc ~path ~elaboration sys pg =
  let cached =
    if not (Sys.file_exists path) then None
    else
      match load path pg with
      | Some create ->
        bump n_cache_hits "cache_hits";
        Some create
      | None ->
        bump n_corrupt "corrupt_misses";
        (try Sys.remove path with Sys_error _ -> ());
        None
  in
  match cached with
  | Some create -> create
  | None -> compile tc ~path ~elaboration sys pg

(* The factory for [sys]'s artifact, dynlinked by the first session of
   its path in this process and reused by the others.  A refused key
   falls back at once; a loaded or cached artifact runs no width
   analysis: its key holds the elaboration key and the emitter version,
   and the emitter writes only programs the analysis accepted. *)
let factory tc sys pg ~elaboration =
  let path =
    Filename.concat (cache_dir ())
      ("ocapi_plugin_" ^ cache_key ~elaboration tc ^ ".cmxs")
  in
  let reused, create =
    Mutex.protect load_mutex (fun () ->
        if Hashtbl.mem rejected elaboration then raise (Fall (diag rejection));
        match Hashtbl.find_opt factories path with
        | Some create -> (true, create)
        | None ->
          let create = obtain tc ~path ~elaboration sys pg in
          Hashtbl.replace factories path create;
          (false, create))
  in
  if reused then bump n_reuses "reuses";
  create

(* --- session construction ------------------------------------------------- *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

(* The plugin's state as [p_reset] re-initializes it, copied: the
   value store, stamps, cycle, FSM states, RAM images and staged RAM
   writes, plus the host kernels' state. *)
type snapshot = {
  sn_values : int array;
  sn_stamps : int array;
  sn_cycle : int;
  sn_states : int array;
  sn_rams : int array array;
  sn_staged : int array;
  sn_kernels : Dataflow.Kernel.snapshot;
}

let snapshot (p : Ocapi_native_abi.plugin) save =
  let open Ocapi_native_abi in
  {
    sn_values = Array.copy p.p_values;
    sn_stamps = Array.copy p.p_stamps;
    sn_cycle = !(p.p_cycle);
    sn_states = Array.copy p.p_states;
    sn_rams = Array.map Array.copy p.p_rams;
    sn_staged = Array.map ( ! ) p.p_ram_staged;
    sn_kernels = save ();
  }

(* [Array.blit] runs the write barrier per element of a major-heap
   array; a loop typed [int array] needs none. *)
let copy_ints (src : int array) (dst : int array) =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- src.(i)
  done

let restore (p : Ocapi_native_abi.plugin) sn =
  let open Ocapi_native_abi in
  copy_ints sn.sn_values p.p_values;
  copy_ints sn.sn_stamps p.p_stamps;
  p.p_cycle := sn.sn_cycle;
  copy_ints sn.sn_states p.p_states;
  Array.iteri (fun i ram -> copy_ints sn.sn_rams.(i) ram) p.p_rams;
  Array.iteri (fun i staged -> staged := sn.sn_staged.(i)) p.p_ram_staged;
  sn.sn_kernels.Dataflow.Kernel.sn_restore ()

let matches (p : Ocapi_native_abi.plugin) sn =
  let open Ocapi_native_abi in
  !(p.p_cycle) = sn.sn_cycle
  && Array_equal.ints p.p_states sn.sn_states
  && Array_equal.ints p.p_values sn.sn_values
  && Array_equal.ints p.p_stamps sn.sn_stamps
  && Array.for_all2 Array_equal.ints p.p_rams sn.sn_rams
  && Array.for_all2 (fun staged a -> !staged = a) p.p_ram_staged sn.sn_staged
  && sn.sn_kernels.Dataflow.Kernel.sn_matches ()

(* Hook [pg]'s host kernels into [p]; they are returned in order. *)
let install_kernels (p : Ocapi_native_abi.plugin) (pg : Compiled_sim.program)
    untimed =
  let values = p.Ocapi_native_abi.p_values in
  Array.mapi
    (fun j { Compiled_sim.hk_name; hk_inputs; hk_outputs } ->
      let k =
        match List.assoc_opt hk_name untimed with
        | Some k -> k
        | None ->
          Ocapi_error.fail Ocapi_error.Internal ~engine:engine_name
            "lowered program names unknown kernel %s" hk_name
      in
      let fire () =
        if k.Dataflow.Kernel.k_ready () then begin
          if Ocapi_obs.enabled () then Ocapi_obs.count "native.kernel_firings";
          let consumed =
            List.map
              (fun (port, slot, fmt) ->
                (port, [ Fixed.create fmt (Int64.of_int values.(slot)) ]))
              hk_inputs
          in
          let produced = k.Dataflow.Kernel.k_behavior consumed in
          List.iter
            (fun (port, slot, stamp) ->
              match List.assoc_opt port produced with
              | Some [ v ] ->
                values.(slot) <- Int64.to_int (Fixed.mantissa v);
                p.Ocapi_native_abi.p_stamps.(stamp) <-
                  !(p.Ocapi_native_abi.p_cycle)
              | Some _ | None -> ())
            hk_outputs
        end
      in
      let commit () =
        if k.Dataflow.Kernel.k_ready () then k.Dataflow.Kernel.k_commit ()
      in
      p.Ocapi_native_abi.p_kernels.(j) <- fire;
      p.Ocapi_native_abi.p_kernel_commits.(j) <- commit;
      k)
    pg.pg_kernels

let native_session tc sys =
  let elaboration = Cycle_system.elaboration_key sys in
  let pg = Ocapi_engine.lowered ~key:elaboration sys in
  let p = factory tc sys pg ~elaboration () in
  let values = p.Ocapi_native_abi.p_values and stamps = p.Ocapi_native_abi.p_stamps in
  let untimed = Cycle_system.untimed_components sys in
  let host_kernels = Array.to_list (install_kernels p pg untimed) in
  let stims =
    Array.map
      (fun (name, slot, stampi) ->
        (Cycle_system.input_column sys name, slot, stampi))
      pg.pg_stims
  in
  (* Stimuli come from the columns by cycle index, and the mantissas
     stay unboxed on their way in and out: a warm step allocates
     nothing. *)
  let drive_stimuli c =
    for i = 0 to Array.length stims - 1 do
      let col, slot, stampi = stims.(i) in
      if Cycle_system.column_present col c then begin
        values.(slot) <-
          Int64.to_int (get64 (Cycle_system.column_mantissas col) (c lsl 3));
        stamps.(stampi) <- c
      end
    done
  in
  let trace, probes = Compiled_sim.probe_trace sys pg.pg_probes ~slot:Fun.id in
  let record_probes cycle =
    Cycle_system.Trace.record_words probes ~cycle ~stamps values
  in
  let regs = pg.pg_regs
  and comps =
    Array.map (fun c -> (c.Compiled_sim.co_name, Array.length c.co_by_state)) pg.pg_comps
  in
  let step () =
    let c = !(p.Ocapi_native_abi.p_cycle) in
    drive_stimuli c;
    (try p.Ocapi_native_abi.p_step () with
    | Ocapi_native_abi.Native_overflow msg ->
      raise
        (Ocapi_error.Error
           (Ocapi_error.make Ocapi_error.Overflow ~engine:engine_name ~cycle:c
              msg)));
    record_probes c;
    if Ocapi_obs.enabled () then Ocapi_obs.count "native.steps"
  in
  let clear_histories () = Cycle_system.Trace.clear trace in
  let reset () =
    p.Ocapi_native_abi.p_reset ();
    List.iter (fun (_, k) -> k.Dataflow.Kernel.k_reset ()) untimed;
    clear_histories ()
  in
  Cycle_system.attach_engine sys engine_name;
  {
    Ocapi_engine.ses_engine = engine_name;
    ses_step = step;
    ses_cycle = (fun () -> !(p.Ocapi_native_abi.p_cycle));
    ses_reset = reset;
    ses_histories = (fun () -> Cycle_system.Trace.to_histories trace);
    ses_trace = (fun () -> trace);
    ses_register_count = Array.length regs;
    ses_register_info =
      (fun i -> (regs.(i).Compiled_sim.reg_name, regs.(i).Compiled_sim.reg_fmt));
    ses_poke_register_bit =
      (fun i ~bit ->
        let { Compiled_sim.reg_name; reg_fmt; reg_cur; _ } = regs.(i) in
        values.(reg_cur) <-
          Int64.to_int
            (Compiled_sim.flip_bit ~name:reg_name reg_fmt ~bit
               (Int64.of_int values.(reg_cur))));
    ses_component_count = Array.length comps;
    ses_component_info = (fun i -> comps.(i));
    ses_component_state = (fun i -> p.Ocapi_native_abi.p_states.(i));
    ses_force_component_state =
      (fun i s ->
        let cname, n = comps.(i) in
        p.Ocapi_native_abi.p_states.(i) <-
          Ocapi_error.check_state ~engine:engine_name ~construct:cname
            ~cycle:!(p.Ocapi_native_abi.p_cycle) ~states:n s);
    ses_resident_words =
      (fun () -> Cycle_system.resident_words sys ~trace (p, regs, comps));
    ses_static_size = Some pg.pg_statements;
    ses_checkpoint =
      (fun () ->
        Option.map
          (fun save ->
            let sn = snapshot p save in
            {
              Ocapi_engine.ck_cycle = sn.sn_cycle;
              ck_restore =
                (fun () ->
                  restore p sn;
                  clear_histories ());
              ck_matches = (fun () -> matches p sn);
            })
          (Dataflow.Kernel.snapshot_all host_kernels));
    ses_close = Ocapi_engine.closer sys engine_name;
  }

(* The interpreted-compiled degradation: the compiled engine's session
   under this engine's name (so sweep artifacts stay deterministic
   whether or not a toolchain is present), same histories. *)
let fallback_session sys =
  bump n_fallbacks "fallbacks";
  Ocapi_engine.compiled_session ~engine:engine_name sys

module Native_engine : Ocapi_engine.ENGINE = struct
  let name = engine_name
  let display = "native"
  let aliases = [ "jit" ]

  let make sys =
    Cycle_system.reset sys;
    match toolchain () with
    | Error _ -> fallback_session sys
    | Ok tc -> (
      try native_session tc sys
      with Fall _ -> fallback_session sys)
end

let registered = ref false

let register_engine () =
  if not !registered then begin
    registered := true;
    Ocapi_engine.register (module Native_engine : Ocapi_engine.ENGINE)
  end
