type check_report = {
  system_issues : Cycle_system.check_issue list;
  sfg_issues : (string * Sfg.check_issue list) list;
  fsm_issues : (string * Fsm.check_issue list) list;
}

let check sys =
  let system_issues = Cycle_system.check sys in
  let sfg_issues =
    List.concat_map
      (fun (cname, fsm) ->
        List.filter_map
          (fun sfg ->
            match Sfg.check sfg with
            | [] -> None
            | issues -> Some (cname ^ "/" ^ Sfg.name sfg, issues))
          (Fsm.all_sfgs fsm))
      (Cycle_system.timed_components sys)
  in
  let fsm_issues =
    List.filter_map
      (fun (cname, fsm) ->
        match Fsm.check fsm with
        | [] -> None
        | issues -> Some (cname, issues))
      (Cycle_system.timed_components sys)
  in
  { system_issues; sfg_issues; fsm_issues }

let check_clean r =
  r.system_issues = [] && r.sfg_issues = [] && r.fsm_issues = []

let pp_check_report ppf r =
  if check_clean r then Format.fprintf ppf "all checks clean"
  else begin
    Format.fprintf ppf "@[<v>";
    List.iter
      (fun i -> Format.fprintf ppf "system: %a@," Cycle_system.pp_issue i)
      r.system_issues;
    List.iter
      (fun (name, issues) ->
        List.iter
          (fun i -> Format.fprintf ppf "%s: %a@," name Sfg.pp_issue i)
          issues)
      r.sfg_issues;
    List.iter
      (fun (name, issues) ->
        List.iter
          (fun i -> Format.fprintf ppf "%s: %a@," name Fsm.pp_issue i)
          issues)
      r.fsm_issues;
    Format.fprintf ppf "@]"
  end

(* --- keyed result cache ----------------------------------------------------

   Memoizes frozen probe traces by (elaboration key, stimulus
   fingerprint, engine key, seed, cycles).  The elaboration key
   ([Cycle_system.elaboration_key]: the structural digest plus each
   kernel's declared model, such as a RAM's word count) does not cover
   primary-input stimuli, so the key reads every stimulus column over
   the simulated cycle range, which the run after a miss then reads
   again without calling the stimuli — stimuli must be pure functions
   of the cycle index for caching to be sound, which every generated
   test bench already requires.  Disabled by default; [enable ~dir]
   adds a Marshal-based on-disk store so warm runs survive the
   process. *)
module Cache = struct
  type stats = {
    hits : int;
    misses : int;
    entries : int;
    disk_hits : int;
    disk_writes : int;
  }

  let lock = Mutex.create ()

  (* None = disabled; Some dir = enabled, with an optional disk store. *)
  let state : string option option ref = ref None
  let hits = ref 0
  let misses = ref 0
  let disk_hits = ref 0
  let disk_writes = ref 0

  (* Every [Store] registers a reset hook here so [clear] empties it.
     Guarded by [lock]. *)
  let clear_hooks : (unit -> unit) list ref = ref []

  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  (* A directory that cannot be made is no error: its writes fail, and
     every failed write is a later miss. *)
  let enable ?dir () =
    Option.iter (fun d -> ignore (Ocapi_obs.File.mkdir_p d)) dir;
    locked (fun () -> state := Some dir)

  let disable () = locked (fun () -> state := None)
  let enabled () = !state <> None

  let clear () = locked (fun () -> List.iter (fun f -> f ()) !clear_hooks)

  let reset_stats () =
    locked (fun () ->
        hits := 0;
        misses := 0;
        disk_hits := 0;
        disk_writes := 0)

  let key_of ~engine ~seed sys ~cycles =
    let design = Cycle_system.elaboration_key sys in
    let stim_buf = Buffer.create 256 in
    List.iter
      (fun (name, _, _) ->
        let col = Cycle_system.input_column sys name in
        Buffer.add_string stim_buf name;
        Buffer.add_char stim_buf ':';
        for c = 0 to cycles - 1 do
          if Cycle_system.column_present col c then
            Buffer.add_string stim_buf
              (Int64.to_string (Cycle_system.column_mantissa col c))
          else Buffer.add_char stim_buf '-';
          Buffer.add_char stim_buf ','
        done;
        Buffer.add_char stim_buf ';')
      (List.sort
         (fun (a, _, _) (b, _, _) -> String.compare a b)
         (Cycle_system.primary_inputs sys));
    let stim_fp = Digest.to_hex (Digest.string (Buffer.contents stim_buf)) in
    String.concat "|"
      [ design; stim_fp; engine; string_of_int seed; string_of_int cycles ]

  let disk_path ~namespace dir k =
    Filename.concat dir
      ("v1-" ^ namespace ^ "-" ^ Digest.to_hex (Digest.string k) ^ ".cache")

  (* Disk entries carry their full key so an MD5 filename collision
     degrades to a miss, never a wrong result.  The read stays outside
     [Ocapi_obs.File]: [Marshal] reads from a channel, and replacing
     that encoding is the cache format's own change. *)
  let disk_read ~namespace (type v) dir k : v option =
    let path = disk_path ~namespace dir k in
    if not (Sys.file_exists path) then None
    else
      try
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let stored_key, value = (Marshal.from_channel ic : string * v) in
            if stored_key = k then Some value else None)
      with _ -> None

  (* Writes are published atomically ([Ocapi_obs.File.publish]): a
     crash mid-write leaves at worst a stray temp file, never a
     truncated [.cache] entry for [disk_read] to choke on.  Any failure
     — out of space, permission, a directory swapped for a file, a value
     [Marshal] cannot encode — degrades to a future miss, not an abort
     of the simulation that just produced the value. *)
  let disk_write ~namespace dir k v =
    match Marshal.to_string (k, v) [] with
    | data -> Result.is_ok (Ocapi_obs.File.publish (disk_path ~namespace dir k) data)
    | exception _ -> false

  (* The shared lookup/store shape of every [Store]: memory first, then
     the namespaced disk entry, counting into the shared hit/miss
     statistics.  Runs under [lock]. *)
  let find_in ~namespace tbl k =
    locked (fun () ->
        match !state with
        | None -> None
        | Some dir -> (
          match Hashtbl.find_opt tbl k with
          | Some v ->
            incr hits;
            Ocapi_obs.count "flow.cache.hit";
            Some v
          | None -> (
            match Option.bind dir (fun d -> disk_read ~namespace d k) with
            | Some v ->
              Hashtbl.replace tbl k v;
              incr hits;
              incr disk_hits;
              Ocapi_obs.count "flow.cache.hit";
              Some v
            | None ->
              incr misses;
              Ocapi_obs.count "flow.cache.miss";
              None)))

  (* Like [find_in] but free of statistics: the re-check inside
     [coalesced] must not inflate the miss counters. *)
  let probe_in ~namespace tbl k =
    locked (fun () ->
        match !state with
        | None -> None
        | Some dir -> (
          match Hashtbl.find_opt tbl k with
          | Some v -> Some v
          | None -> Option.bind dir (fun d -> disk_read ~namespace d k)))

  let store_in ~namespace tbl k v =
    locked (fun () ->
        match !state with
        | None -> ()
        | Some dir ->
          Hashtbl.replace tbl k v;
          Option.iter
            (fun d -> if disk_write ~namespace d k v then incr disk_writes)
            dir)

  (* --- in-flight coalescing.  The first caller of a key computes
     while identical concurrent callers block on [inflight_cond]; when
     the computation lands in the cache the waiters are served from it,
     so identical runs in flight on several domains cost one
     execution. *)
  let inflight : (string, unit) Hashtbl.t = Hashtbl.create 8
  let inflight_cond = Condition.create ()

  let coalesced ~key:k ~lookup ~probe ~compute ~store =
    (* true -> we own the computation; false -> another domain finished
       it while we waited, re-try the lookup. *)
    let claim () =
      locked (fun () ->
          if Hashtbl.mem inflight k then begin
            while Hashtbl.mem inflight k do
              Condition.wait inflight_cond lock
            done;
            false
          end
          else begin
            Hashtbl.add inflight k ();
            true
          end)
    in
    let release () =
      locked (fun () ->
          Hashtbl.remove inflight k;
          Condition.broadcast inflight_cond)
    in
    let rec go () =
      match lookup k with
      | Some v -> v
      | None ->
        if claim () then
          Fun.protect ~finally:release (fun () ->
              (* A winner may have stored between our miss and our
                 claim; a stat-free probe avoids recomputing. *)
              match probe k with
              | Some v -> v
              | None ->
                let v = compute () in
                store k v;
                v)
        else go ()
    in
    go ()

  (* A typed store sharing the cache's lifecycle (enable / disable /
     clear / stats) and disk directory.  One application per value
     type; [namespace] keys the disk entries, so it must be unique per
     type or disk reads would unmarshal at the wrong type. *)
  module Store (V : sig
    type t

    val namespace : string
  end) =
  struct
    let tbl : (string, V.t) Hashtbl.t = Hashtbl.create 16

    let () =
      locked (fun () ->
          clear_hooks := (fun () -> Hashtbl.reset tbl) :: !clear_hooks)

    let find k = find_in ~namespace:V.namespace tbl k
    let add k v = store_in ~namespace:V.namespace tbl k v

    let coalesced ~key ~compute =
      coalesced ~key ~lookup:find ~probe:(probe_in ~namespace:V.namespace tbl)
        ~compute ~store:add
  end

  (* [simulate]'s results.  The namespace is not the ["hist"] of the
     list entries older builds wrote, so no such entry is ever read
     back as a trace. *)
  module Traces = Store (struct
    type t = Cycle_system.Trace.t

    let namespace = "trace"
  end)

  let stats () =
    locked (fun () ->
        {
          hits = !hits;
          misses = !misses;
          entries = Hashtbl.length Traces.tbl;
          disk_hits = !disk_hits;
          disk_writes = !disk_writes;
        })
end

(* The flow layer is the first common dependency of every entry point
   (CLI, batch, tests), so registering the native engine here makes
   [Ocapi_engine.find "native"] work everywhere without each client
   naming [Ocapi_native]. *)
let () =
  Ocapi_native.register_engine ();
  Ocapi_ir.register_gate_engine ()

let simulate_trace ?(engine = "interp") ?(seed = 0) ?progress ?corr sys ~cycles =
  Ocapi_error.check_count ~engine:"flow" "simulate: cycles" cycles;
  let (module E : Ocapi_engine.ENGINE) = Ocapi_engine.get engine in
  let compute () =
    let ses = E.make sys in
    Fun.protect ~finally:ses.Ocapi_engine.ses_close (fun () ->
        Ocapi_engine.run ?progress ses ~cycles)
  in
  let run () =
    if not (Cache.enabled ()) then compute ()
    else
      Cache.Traces.coalesced
        ~key:(Cache.key_of ~engine:E.name ~seed sys ~cycles)
        ~compute
  in
  (* The correlation id lands both in the event log and in the span
     args, so a Perfetto trace and the event log join per job. *)
  let ev_fields =
    [ ("engine", Ocapi_obs.Json.String E.name);
      ("cycles", Ocapi_obs.Json.Int cycles) ]
  in
  let span_args =
    match corr with
    | None -> ev_fields
    | Some c -> ("corr", Ocapi_obs.Json.String c) :: ev_fields
  in
  Ocapi_obs.Events.emit ?corr ~fields:ev_fields "run_started";
  let result =
    Ocapi_obs.with_span ~cat:"flow" ~args:span_args "flow.simulate" run
  in
  Ocapi_obs.Events.emit ?corr ~fields:ev_fields "run_finished";
  result

let simulate ?engine ?seed ?progress ?corr sys ~cycles =
  Cycle_system.Trace.to_histories
    (simulate_trace ?engine ?seed ?progress ?corr sys ~cycles)

type mismatch = {
  mm_pair : string;
  mm_probe : string;
  mm_cycle : int option;
  mm_detail : string;
}

let first_mismatch a b =
  let module T = Cycle_system.Trace in
  let na = T.probe_count a and nb = T.probe_count b in
  let rec scan p =
    if p = na || p = nb then
      if na = nb then None
      else if p < na then
        Some (T.probe_name a p, None, "probe missing from second engine")
      else Some (T.probe_name b p, None, "probe missing from first engine")
    else
      let probe = T.probe_name a p and other = T.probe_name b p in
      if probe <> other then
        Some (probe, None, Printf.sprintf "probe order differs (vs %s)" other)
      else
        let at t k detail = Some (probe, Some (T.cycle t p k), detail) in
        match T.mismatch (a, p, 0) (b, p, 0) with
        | None -> scan (p + 1)
        | Some (T.Cycle k) ->
          let c1 = T.cycle a p k and c2 = T.cycle b p k in
          at (if c1 < c2 then a else b) k
            (Printf.sprintf "token cycles diverge (%d vs %d)" c1 c2)
        | Some (T.Value k) ->
          at a k
            (Printf.sprintf "%s vs %s"
               (Fixed.to_string (T.token a p k))
               (Fixed.to_string (T.token b p k)))
        | Some (T.Length k) ->
          if k < T.length a p then at a k "second history ends early"
          else at b k "first history ends early"
  in
  scan 0

(* The trace holding [histories], each token in its own format. *)
let of_histories histories =
  let module T = Cycle_system.Trace in
  let t = T.create (List.map (fun (name, _) -> (name, None)) histories) in
  List.iteri
    (fun p (_, h) -> List.iter (fun (cycle, v) -> T.record_token t p ~cycle v) h)
    histories;
  t

let first_history_mismatch a b = first_mismatch (of_histories a) (of_histories b)

let engine_disagreements ?progress sys ~cycles =
  match Ocapi_engine.all () with
  | [] -> []
  | baseline :: others ->
    let run e = simulate_trace ~engine:(Ocapi_engine.name_of e) ?progress sys ~cycles in
    let reference = run baseline in
    List.filter_map
      (fun e ->
        match first_mismatch reference (run e) with
        | None -> None
        | Some (probe, cycle, detail) ->
          Some
            {
              mm_pair =
                Ocapi_engine.display_of baseline ^ "-vs-" ^ Ocapi_engine.display_of e;
              mm_probe = probe;
              mm_cycle = cycle;
              mm_detail = detail;
            })
      others

let pp_mismatch ppf m =
  Format.fprintf ppf "%s: first mismatch at probe %s%s: %s" m.mm_pair
    m.mm_probe
    (match m.mm_cycle with
    | Some c -> Printf.sprintf ", cycle %d" c
    | None -> "")
    m.mm_detail

(* Canonical machine-readable rendering of a simulation result.  The
   CLI's [simulate --json] and the job runner's simulate artifacts
   both print exactly this (plus a trailing newline), which is what
   makes "batch output bit-identical to one-shot CLI output" a
   byte-level comparison. *)
let simulate_result_json ~engine ~cycles histories =
  let open Ocapi_obs.Json in
  Obj
    [
      ("kind", String "simulate");
      ("engine", String engine);
      ("cycles", Int cycles);
      ( "probes",
        Obj
          (List.map
             (fun (probe, hist) ->
               ( probe,
                 List
                   (List.map
                      (fun (c, v) ->
                        List [ Int c; String (Fixed.to_string v) ])
                      hist) ))
             histories) );
    ]

let mismatch_json m =
  let open Ocapi_obs.Json in
  Obj
    [
      ("pair", String m.mm_pair);
      ("probe", String m.mm_probe);
      ("cycle", match m.mm_cycle with Some c -> Int c | None -> Null);
      ("detail", String m.mm_detail);
    ]

let mismatches_json ~cycles ms =
  let open Ocapi_obs.Json in
  Obj
    [
      ("kind", String "engine-sweep");
      ("cycles", Int cycles);
      ("engines", List (List.map (fun n -> String n) (Ocapi_engine.names ())));
      ("agree", Bool (ms = []));
      ("mismatches", List (List.map mismatch_json ms));
    ]

let engines_agree sys ~cycles =
  List.map
    (fun m -> Format.asprintf "%a" pp_mismatch m)
    (engine_disagreements sys ~cycles)

let write_file dir name contents =
  let path = Filename.concat dir name in
  match Ocapi_obs.File.publish path contents with
  | Ok () -> path
  | Error msg -> Ocapi_error.fail Internal ~engine:"flow" "cannot write %s" msg

let emit_vhdl sys ~dir =
  List.map (fun (name, contents) -> write_file dir name contents)
    (Vhdl.of_system sys)

let emit_testbench sys ~dir ~cycles =
  Ocapi_error.check_count ~engine:"flow" "test bench: cycles" cycles;
  let vectors = Testbench.record sys ~cycles in
  write_file dir
    ("tb_" ^ Verilog.sanitize (Cycle_system.name sys) ^ ".vhd")
    (Testbench.vhdl sys vectors)

let emit_ocaml_simulator sys ~dir ~cycles =
  Ocapi_error.check_count ~engine:"flow" "standalone simulator: cycles" cycles;
  Cycle_system.reset sys;
  let src = Emit.emit_standalone sys ~cycles in
  write_file dir
    (Verilog.sanitize (Cycle_system.name sys) ^ "_sim.ml")
    src

let synthesize_to_verilog sys ~dir =
  let nl, report = Synthesize.synthesize sys in
  let path =
    write_file dir
      (Verilog.sanitize (Cycle_system.name sys) ^ "_netlist.v")
      (Verilog.of_netlist nl)
  in
  (nl, report, path)
