(* The command-line front end of the environment.

     ocapi check <design>
     ocapi simulate <design> [--cycles N] [--engine E] [--json]
     ocapi synth <design> [--no-share]
     ocapi emit <design> [--dir D] [--cycles N]
     ocapi profile --design <design> --engine <E> [--cycles N] [--dir D]
                   [--metrics-out FILE]
     ocapi fault --design <design> [--campaign seu|stuck-at] [--domains N]
     ocapi batch --manifest jobs.jsonl [--domains N] [--artifacts DIR]
                 [--events-out FILE]
     ocapi serve --manifest jobs.jsonl [--workers N] [--state-dir D]
                 [--retries N] [--chaos-prob P] [--die-after N]
     ocapi worker --request JSON --artifact FILE   (spawned by serve)
     ocapi report [--ledger FILE] [--events FILE] [--html FILE] [--gate]
     ocapi fuzz [--seed N] [--count N] [--engines A,B] [--corpus FILE]
                [--shrink] [--deep] [--domains N] [--self-test] [--json]

   Designs: hcor | dect | rs | cpu (the gallery designs of lib/designs). *)

open Cmdliner

let design_arg =
  let doc = "Reference design to operate on: hcor, dect, rs or cpu." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN" ~doc)

let cycles_arg default =
  let doc = "Number of clock cycles." in
  Arg.(value & opt int default & info [ "cycles"; "n" ] ~docv:"N" ~doc)

(* A structured error from the library fails the command: printed,
   exit 1, not the 125 of an uncaught exception. *)
let reporting_errors f =
  try f ()
  with Ocapi_error.Error err ->
    prerr_endline (Ocapi_error.to_string err);
    1

(* Publish a file the command writes; a path it cannot write fails the
   command as a library error does. *)
let publish path data =
  match Ocapi_obs.File.publish path data with
  | Ok () -> ()
  | Error msg -> Ocapi_error.fail Internal ~engine:"cli" "cannot write %s" msg

(* Run [k] on a loaded input file.  A path that cannot be read exits 1,
   as a library error does; a malformed line exits 2. *)
let with_input what loaded k =
  match loaded with
  | Error e ->
    Printf.eprintf "%s: %s\n" what e;
    1
  | Ok (Error e) ->
    Printf.eprintf "%s: %s\n" what e;
    2
  | Ok (Ok v) -> k v

let with_design name f =
  match Gallery.build name with
  | None ->
    Printf.eprintf "unknown design %S (try hcor, dect, rs or cpu)\n" name;
    1
  | Some sys -> reporting_errors (fun () -> f sys)

(* check *)
let check_cmd =
  let run name =
    with_design name (fun sys ->
        let report = Flow.check sys in
        Format.printf "%a@." Flow.pp_check_report report;
        if Flow.check_clean report then 0 else 1)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Run the semantic checks on a design.")
    Term.(const run $ design_arg)

(* simulate *)
let engine_arg =
  let doc =
    "Cycle engine (resolved from the engine registry: interp, compiled, \
     native, rtl) or gates."
  in
  Arg.(value & opt string "interp" & info [ "engine"; "e" ] ~docv:"ENGINE" ~doc)

let telemetry_arg =
  Arg.(
    value & flag
    & info [ "telemetry" ]
        ~doc:"Run under telemetry and print the metrics report afterwards.")

let cache_arg =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:
          "Enable the keyed result cache with its on-disk store under \
           _generated/cache/ (warm reruns skip re-simulation).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Print the result as JSON.")

(* Run [f] plainly, or under a fresh telemetry scope with the report
   printed afterwards. *)
let maybe_telemetry flag ~label f =
  if flag then begin
    let result, report = Ocapi_obs.run_with_telemetry ~label f in
    Format.printf "%a@." Ocapi_obs.pp_report report;
    result
  end
  else f ()

let unknown_engine other =
  Printf.eprintf "unknown engine %S (try %s or gates)\n" other
    (String.concat ", " (Ocapi_engine.names ()));
  1

let simulate_cmd =
  let run name cycles engine telemetry cache json =
    with_design name (fun sys ->
        if cache then Flow.Cache.enable ~dir:"_generated/cache" ();
        (* [--json] prints the same canonical rendering the batch
           service writes as its simulate artifacts — byte-identical,
           which is what the determinism gate diffs. *)
        let show ~engine histories =
          if json then
            print_endline
              (Ocapi_obs.Json.to_string
                 (Flow.simulate_result_json ~engine ~cycles histories))
          else
            List.iter
              (fun (p, hist) ->
                Printf.printf "%-14s %d tokens" p (List.length hist);
                (match List.rev hist with
                | (c, v) :: _ -> Printf.printf "; last @%d = %s" c (Fixed.to_string v)
                | [] -> ());
                print_newline ())
              histories
        in
        let code =
          match engine with
          | "gates" ->
            let r =
              maybe_telemetry telemetry ~label:(name ^ ".gates") (fun () ->
                  Synthesize.verify sys ~cycles)
            in
            Printf.printf "gate-level run: %d vectors, %d mismatches\n"
              r.Synthesize.vectors_checked
              (List.length r.Synthesize.mismatches);
            if r.Synthesize.mismatches = [] then 0 else 1
          | other -> (
            match Ocapi_engine.find other with
            | None -> unknown_engine other
            | Some e ->
              let engine = Ocapi_engine.name_of e in
              show ~engine
                (maybe_telemetry telemetry ~label:("simulate." ^ engine)
                   (fun () -> Flow.simulate ~engine sys ~cycles));
              0)
        in
        if cache && not json then begin
          let s = Flow.Cache.stats () in
          Printf.printf
            "cache: %d hits (%d from disk), %d misses, %d entries\n"
            s.Flow.Cache.hits s.Flow.Cache.disk_hits s.Flow.Cache.misses
            s.Flow.Cache.entries
        end;
        code)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate a design on one of the engines.")
    Term.(
      const run $ design_arg $ cycles_arg 200 $ engine_arg $ telemetry_arg
      $ cache_arg $ json_arg)

(* synth *)
let no_share_arg =
  Arg.(value & flag & info [ "no-share" ] ~doc:"Disable operator sharing.")

let optimize_arg =
  Arg.(value & flag & info [ "optimize" ]
         ~doc:"Run gate-level optimization after synthesis.")

let synth_cmd =
  let run name no_share optimize telemetry =
    with_design name (fun sys ->
        let options =
          { Synthesize.default_options with
            Synthesize.share_operators = not no_share }
        in
        maybe_telemetry telemetry ~label:(name ^ ".synth") (fun () ->
            let nl, rep = Synthesize.synthesize ~options sys in
            Format.printf "%a@." Synthesize.pp_report rep;
            if optimize then begin
              let _, st = Netopt.run nl in
              Format.printf "%a@." Netopt.pp_stats st
            end);
        0)
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Synthesize a design and print the gate report.")
    Term.(const run $ design_arg $ no_share_arg $ optimize_arg $ telemetry_arg)

(* emit *)
let dir_arg =
  Arg.(value & opt string "_generated" & info [ "dir"; "o" ] ~docv:"DIR"
         ~doc:"Output directory.")

let emit_cmd =
  let run name dir cycles =
    with_design name (fun sys ->
        List.iter (Printf.printf "wrote %s\n") (Flow.emit_vhdl sys ~dir);
        Printf.printf "wrote %s\n" (Flow.emit_testbench sys ~dir ~cycles);
        let _, rep, path = Flow.synthesize_to_verilog sys ~dir in
        Printf.printf "wrote %s (%d gate-equivalents)\n" path
          rep.Synthesize.total.Netlist.gate_equivalents;
        Printf.printf "wrote %s\n"
          (Flow.emit_ocaml_simulator sys ~dir ~cycles);
        let dot = Filename.concat dir (name ^ "_architecture.dot") in
        publish dot (Cycle_system.to_dot sys);
        Printf.printf "wrote %s\n" dot;
        let vcd = Filename.concat dir (name ^ ".vcd") in
        publish vcd (Vcd.record sys ~cycles);
        Printf.printf "wrote %s\n" vcd;
        0)
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:"Generate VHDL, a test bench, the Verilog netlist and the \
             standalone simulator.")
    Term.(const run $ design_arg $ dir_arg $ cycles_arg 60)

(* profile *)
let profile_design_arg =
  let doc = "Reference design to profile: hcor, dect, rs or cpu." in
  Arg.(
    required
    & opt (some string) None
    & info [ "design"; "d" ] ~docv:"DESIGN" ~doc)

let profile_engine_arg =
  let doc = "Engine to profile: interp, compiled, native, rtl, gates or synth." in
  Arg.(value & opt string "compiled" & info [ "engine"; "e" ] ~docv:"ENGINE" ~doc)

let metrics_out_arg =
  let doc =
    "Write the metrics report JSON to $(docv) instead of the default \
     DIR/DESIGN_ENGINE_metrics.json."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let profile_cmd =
  let run name engine cycles dir metrics_out =
    with_design name (fun sys ->
        let workload =
          match engine with
          | "gates" ->
            Some (fun () -> ignore (Synthesize.verify sys ~cycles))
          | "synth" ->
            Some
              (fun () ->
                let nl, _ = Synthesize.synthesize sys in
                ignore (Netopt.run nl))
          | other ->
            Option.map
              (fun e () ->
                ignore
                  (Flow.simulate ~engine:(Ocapi_engine.name_of e) sys
                     ~cycles))
              (Ocapi_engine.find other)
        in
        match workload with
        | None ->
          Printf.eprintf "unknown engine %S (try %s, gates or synth)\n" engine
            (String.concat ", " (Ocapi_engine.names ()));
          1
        | Some f ->
          let (), report =
            Ocapi_obs.run_with_telemetry ~label:(name ^ "." ^ engine) f
          in
          let metrics_path =
            match metrics_out with
            | Some path -> path
            | None ->
              Filename.concat dir
                (Printf.sprintf "%s_%s_metrics.json" name engine)
          in
          publish metrics_path
            (Ocapi_obs.Json.to_string (Ocapi_obs.report_json report) ^ "\n");
          let trace_path =
            Filename.concat dir (Printf.sprintf "%s_%s.trace.json" name engine)
          in
          publish trace_path (Ocapi_obs.trace_json ());
          Format.printf "%a@." Ocapi_obs.pp_report report;
          Printf.printf "wrote %s\nwrote %s\n" metrics_path trace_path;
          Printf.printf
            "open the trace in Perfetto (https://ui.perfetto.dev) or \
             chrome://tracing\n";
          0)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a design under telemetry and write a metrics report plus a \
          Chrome trace-event file.")
    Term.(
      const run $ profile_design_arg $ profile_engine_arg $ cycles_arg 200
      $ dir_arg $ metrics_out_arg)

(* fault *)
let fault_design_arg =
  let doc = "Reference design to run the campaign on: hcor, dect, rs or cpu." in
  Arg.(
    required
    & opt (some string) None
    & info [ "design"; "d" ] ~docv:"DESIGN" ~doc)

let campaign_arg =
  let doc = "Campaign: stuck-at (gate level) or seu (register bit flips)." in
  Arg.(value & opt string "seu" & info [ "campaign"; "c" ] ~docv:"KIND" ~doc)

let runs_arg =
  let doc = "SEU runs (each is one independent simulation)." in
  Arg.(value & opt int 1000 & info [ "runs" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Campaign seed; the same seed reproduces the same report." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let max_faults_arg =
  let doc = "Cap the stuck-at campaign to a seeded sample of N faults." in
  Arg.(value & opt (some int) None & info [ "max-faults" ] ~docv:"N" ~doc)

let fault_engine_arg =
  let doc = "SEU engine: interp, compiled, native, rtl or gate." in
  Arg.(value & opt string "compiled" & info [ "engine"; "e" ] ~docv:"ENGINE" ~doc)

let optimized_arg =
  let doc =
    "Stuck-at only: run the campaign on both the raw synthesized netlist and \
     the Netopt-optimized one (derived through the IR pass pipeline), \
     reporting pre- and post-optimization coverage side by side."
  in
  Arg.(value & flag & info [ "optimized" ] ~doc)

let domains_arg =
  let doc =
    "Worker domains for the campaign (1 = serial).  The report is \
     bit-identical for any value."
  in
  Arg.(value & opt int 1 & info [ "domains"; "j" ] ~docv:"N" ~doc)

let fault_cmd =
  let run name campaign cycles runs seed max_faults engine domains optimized
      json =
    with_design name (fun sys ->
        (* Each extra worker domain owns a fresh, isolated copy of the
           design; the gallery builders are deterministic, so replicas
           match. *)
        let replicate = List.assoc name Gallery.designs in
        match campaign with
        | "stuck-at" | "stuck_at" | "sa" when optimized ->
          let compare, telemetry =
            Ocapi_obs.run_with_telemetry ~label:(name ^ ".stuck-at-opt")
              (fun () ->
                Ocapi_fault.stuck_at_optimized ?max_faults ~seed ~domains sys
                  ~cycles)
          in
          if json then
            print_endline
              (Ocapi_obs.Json.to_string
                 (Ocapi_fault.stuck_compare_json compare))
          else begin
            Format.printf "%a@." Ocapi_fault.pp_stuck_compare compare;
            Printf.printf "campaign wall time: %.2fs\n"
              telemetry.Ocapi_obs.rp_seconds
          end;
          0
        | "stuck-at" | "stuck_at" | "sa" ->
          let report, telemetry =
            Ocapi_obs.run_with_telemetry ~label:(name ^ ".stuck-at")
              (fun () ->
                Ocapi_fault.stuck_at_system ?max_faults ~seed ~domains sys
                  ~cycles)
          in
          if json then
            print_endline
              (Ocapi_obs.Json.to_string (Ocapi_fault.stuck_report_json report))
          else begin
            Format.printf "%a@." Ocapi_fault.pp_stuck_report report;
            Printf.printf "campaign wall time: %.2fs\n"
              telemetry.Ocapi_obs.rp_seconds
          end;
          0
        | "seu" -> (
          match Ocapi_engine.find engine with
          | None ->
            Printf.eprintf "unknown engine %S (try %s)\n" engine
              (String.concat ", " (Ocapi_engine.names ()));
            1
          | Some e ->
            let engine = Ocapi_engine.name_of e in
            let report, telemetry =
              Ocapi_obs.run_with_telemetry ~label:(name ^ ".seu") (fun () ->
                  Ocapi_fault.seu_campaign ~engine ~runs ~seed ~domains
                    ~replicate sys ~cycles)
            in
            if json then
              print_endline
                (Ocapi_obs.Json.to_string (Ocapi_fault.seu_report_json report))
            else begin
              Format.printf "%a@." Ocapi_fault.pp_seu_report report;
              Printf.printf "campaign wall time: %.2fs (%.0f runs/s)\n"
                telemetry.Ocapi_obs.rp_seconds
                (float_of_int runs /. max 1e-9 telemetry.Ocapi_obs.rp_seconds)
            end;
            0)
        | other ->
          Printf.eprintf "unknown campaign %S (try stuck-at or seu)\n" other;
          1)
  in
  Cmd.v
    (Cmd.info "fault"
       ~doc:
         "Run a fault campaign: gate-level stuck-at fault simulation with \
          coverage reporting, or a seeded SEU bit-flip campaign classified \
          as masked / silent data corruption / detected.")
    Term.(
      const run $ fault_design_arg $ campaign_arg $ cycles_arg 64 $ runs_arg
      $ seed_arg $ max_faults_arg $ fault_engine_arg $ domains_arg
      $ optimized_arg $ json_arg)

(* batch / serve / worker: the job runner.

   Both commands run a JSONL manifest through Ocapi_service: one
   admission path (validation, dedup, priority queue), one event
   vocabulary, one summary and one exit code.  `ocapi batch` runs the
   jobs on in-process domains, without a journal.  `ocapi serve`
   supervises one `ocapi worker` process per job attempt and journals
   every transition to state-dir/journal.jsonl before it takes effect,
   so a killed server restarted with the same command line resumes
   where it died: completed jobs dedup against the journal, in-flight
   jobs re-run, and the artifact tree converges to the undisturbed
   run's bytes. *)

let artifacts_arg default =
  let doc = "Directory for the per-job JSON artifacts." in
  Arg.(value & opt string default & info [ "artifacts" ] ~docv:"DIR" ~doc)

let quiet_arg =
  Arg.(
    value & flag
    & info [ "quiet"; "q" ] ~doc:"Suppress the streaming per-job lines.")

let events_out_arg =
  let doc =
    "Write the structured event log (job and run lifecycle, one JSON object \
     per line, correlation ids matching the trace spans) to $(docv).  The \
     file is canonical: byte-identical for any worker count."
  in
  Arg.(value & opt (some string) None & info [ "events-out" ] ~docv:"FILE" ~doc)

(* Read the manifest, run it, print the summary.  Exit codes: 0 all
   jobs completed or deduped; 1 a line failed or was rejected; 4 a
   signal drained the runner with jobs left; 130 a second signal
   aborted it. *)
let run_manifest ~cmd ~json ~quiet ~events_out manifest cfg =
  match Option.fold ~none:(Ok []) ~some:Ocapi_batch.read_manifest manifest with
  | Error e ->
    Printf.eprintf "manifest %s: %s\n" (Option.value manifest ~default:"") e;
    1
  | Ok requests ->
    reporting_errors @@ fun () ->
    if events_out <> None then begin
      Ocapi_obs.Events.clear ();
      Ocapi_obs.Events.set_enabled true
    end;
    let on_line line =
      print_string line;
      print_newline ()
    in
    let s =
      Ocapi_service.serve
        {
          cfg with
          Ocapi_service.cf_on_line = (if quiet then None else Some on_line);
        }
        ~requests
    in
    Option.iter
      (fun path ->
        Ocapi_obs.Events.set_enabled false;
        publish path (Ocapi_obs.Events.canonical_jsonl ()))
      events_out;
    if json then
      print_endline
        (Ocapi_obs.Json.to_string
           (Ocapi_obs.Json.Obj
              [
                ("submitted", Ocapi_obs.Json.Int s.Ocapi_service.sm_submitted);
                ("deduped", Ocapi_obs.Json.Int s.sm_deduped);
                ("recovered", Ocapi_obs.Json.Int s.sm_recovered);
                ("completed", Ocapi_obs.Json.Int s.sm_completed);
                ("failed", Ocapi_obs.Json.Int s.sm_failed);
                ("poisoned", Ocapi_obs.Json.Int s.sm_poisoned);
                ("rejected", Ocapi_obs.Json.Int s.sm_rejected);
                ("crashes", Ocapi_obs.Json.Int s.sm_crashes);
                ("retries", Ocapi_obs.Json.Int s.sm_retries);
                ("chaos_kills", Ocapi_obs.Json.Int s.sm_chaos_kills);
                ("drained", Ocapi_obs.Json.Bool s.sm_drained);
                ("aborted", Ocapi_obs.Json.Bool s.sm_aborted);
              ]))
    else
      Printf.printf
        "%s: %d submitted, %d deduped, %d recovered, %d completed, %d failed \
         (%d poisoned), %d rejected, %d crashes, %d retries, %d chaos kills \
         (%.2fs)\n"
        cmd s.Ocapi_service.sm_submitted s.sm_deduped s.sm_recovered
        s.sm_completed s.sm_failed s.sm_poisoned s.sm_rejected s.sm_crashes
        s.sm_retries s.sm_chaos_kills s.sm_seconds;
    if s.sm_aborted then 130
    else if s.sm_drained then 4
    else if s.sm_failed > 0 || s.sm_rejected > 0 then 1
    else 0

let batch_cmd =
  let manifest_arg =
    let doc = "JSONL job manifest: one job object per line." in
    Arg.(
      required & opt (some string) None & info [ "manifest"; "m" ] ~docv:"FILE" ~doc)
  in
  let run manifest domains artifacts cache telemetry quiet events_out =
    let cfg =
      {
        Ocapi_service.default_config with
        cf_workers = domains;
        cf_worker_kind = Ocapi_service.Domains;
        cf_artifact_dir = artifacts;
        cf_retries = 1;
        cf_cache_dir = (if cache then Some "_generated/cache" else None);
      }
    in
    let go () =
      run_manifest ~cmd:"batch" ~json:false ~quiet ~events_out (Some manifest) cfg
    in
    if telemetry then begin
      let code, report = Ocapi_obs.run_with_telemetry ~label:"batch" go in
      Format.printf "%a@." Ocapi_obs.pp_report report;
      code
    end
    else go ()
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run a JSONL manifest of simulate / SEU / stuck-at / engine-sweep / \
          fuzz jobs on in-process worker domains, deduplicating identical \
          jobs and writing per-job JSON artifacts.  Artifacts are \
          bit-identical for any --domains value and to `ocapi serve`'s.")
    Term.(
      const run $ manifest_arg $ domains_arg $ artifacts_arg "_generated/batch"
      $ cache_arg $ telemetry_arg $ quiet_arg $ events_out_arg)

let worker_cmd =
  let request_arg =
    let doc = "The job as a one-line JSON manifest object." in
    Arg.(required & opt (some string) None & info [ "request" ] ~docv:"JSON" ~doc)
  in
  let artifact_arg =
    let doc = "Path the canonical JSON artifact is atomically written to." in
    Arg.(required & opt (some string) None & info [ "artifact" ] ~docv:"FILE" ~doc)
  in
  let timeout_arg =
    let doc = "Cooperative wall-clock budget (seconds) when the request carries none." in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let heartbeat_arg =
    let doc = "Heartbeat period (seconds) on stdout." in
    Arg.(value & opt float 1.0 & info [ "heartbeat-every" ] ~docv:"SECONDS" ~doc)
  in
  let cache_dir_arg =
    let doc = "Enable the disk-backed evaluation cache in $(docv)." in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let run request artifact timeout heartbeat_every cache_dir =
    Ocapi_service.worker_main ?timeout ~heartbeat_every ?cache_dir ~request
      ~artifact ()
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Run one job in this process for a supervising `ocapi serve` \
          (heartbeats on stdout, artifact written atomically).  Not usually \
          invoked by hand.")
    Term.(
      const run $ request_arg $ artifact_arg $ timeout_arg $ heartbeat_arg
      $ cache_dir_arg)

let serve_cmd =
  let manifest_opt_arg =
    let doc =
      "JSONL job manifest.  Optional: without it the server only resumes \
       journaled work, which is how a crashed campaign is finished."
    in
    Arg.(value & opt (some string) None & info [ "manifest"; "m" ] ~docv:"FILE" ~doc)
  in
  let workers_arg =
    let doc = "Concurrent worker processes." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let state_dir_arg =
    let doc = "State directory holding the crash-recovery journal." in
    Arg.(
      value
      & opt string "_generated/service"
      & info [ "state-dir" ] ~docv:"DIR" ~doc)
  in
  let retries_arg =
    let doc = "Attempt budget per job before it is poisoned (retries-exhausted)." in
    Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let backoff_base_arg =
    let doc = "Base retry backoff (seconds); doubles per attempt, with seeded jitter." in
    Arg.(value & opt float 0.5 & info [ "backoff-base" ] ~docv:"SECONDS" ~doc)
  in
  let backoff_cap_arg =
    let doc = "Upper bound on the retry backoff (seconds)." in
    Arg.(value & opt float 30.0 & info [ "backoff-cap" ] ~docv:"SECONDS" ~doc)
  in
  let backoff_seed_arg =
    let doc = "Seed of the deterministic backoff jitter." in
    Arg.(value & opt int 1 & info [ "backoff-seed" ] ~docv:"SEED" ~doc)
  in
  let job_timeout_arg =
    let doc = "Default per-job wall-clock budget (seconds) for requests carrying none." in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let heartbeat_timeout_arg =
    let doc = "Kill a worker silent for this long (seconds)." in
    Arg.(value & opt float 30.0 & info [ "heartbeat-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let max_queue_arg =
    let doc = "Pending-queue bound; submissions beyond it are rejected (overloaded)." in
    Arg.(value & opt int 1024 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let chaos_prob_arg =
    let doc =
      "Chaos mode: probability that a first-attempt worker is SIGKILLed at a \
       seeded random point.  0 disables chaos."
    in
    Arg.(value & opt float 0.0 & info [ "chaos-prob" ] ~docv:"P" ~doc)
  in
  let chaos_seed_arg =
    let doc = "Seed of the chaos kill schedule." in
    Arg.(value & opt int 7 & info [ "chaos-seed" ] ~docv:"SEED" ~doc)
  in
  let chaos_delay_arg =
    let doc = "Chaos kills land uniformly within $(docv) seconds of launch." in
    Arg.(value & opt float 0.5 & info [ "chaos-delay" ] ~docv:"SECONDS" ~doc)
  in
  let die_after_arg =
    let doc =
      "Crash-testing failpoint: SIGKILL the server itself after $(docv) \
       completed jobs (the recovery gate restarts it)."
    in
    Arg.(value & opt (some int) None & info [ "die-after" ] ~docv:"N" ~doc)
  in
  let run manifest workers state_dir artifacts retries backoff_base backoff_cap
      backoff_seed job_timeout heartbeat_timeout max_queue cache chaos_prob
      chaos_seed chaos_delay die_after quiet events_out json =
    run_manifest ~cmd:"serve" ~json ~quiet ~events_out manifest
      {
        Ocapi_service.default_config with
        cf_workers = workers;
        cf_worker_kind =
          Ocapi_service.Processes
            { cmd = [ Sys.executable_name; "worker" ]; state_dir };
        cf_artifact_dir = artifacts;
        cf_retries = retries;
        cf_backoff_base = backoff_base;
        cf_backoff_cap = backoff_cap;
        cf_backoff_seed = backoff_seed;
        cf_job_timeout = job_timeout;
        cf_heartbeat_timeout = heartbeat_timeout;
        cf_max_queue = max_queue;
        cf_cache_dir = (if cache then Some "_generated/cache" else None);
        cf_chaos =
          (if chaos_prob > 0.0 then
             Some
               {
                 Ocapi_service.ch_seed = chaos_seed;
                 ch_kill_prob = chaos_prob;
                 ch_kill_delay = chaos_delay;
               }
           else None);
        cf_die_after = die_after;
      }
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a campaign on supervised worker processes with retry/backoff \
          and a crash-recoverable journal: a killed server restarted with \
          the same command line resumes where it died, and the artifact \
          tree converges to the bytes of an undisturbed run.")
    Term.(
      const run $ manifest_opt_arg $ workers_arg $ state_dir_arg
      $ artifacts_arg "_generated/service/artifacts" $ retries_arg
      $ backoff_base_arg $ backoff_cap_arg $ backoff_seed_arg $ job_timeout_arg
      $ heartbeat_timeout_arg $ max_queue_arg $ cache_arg $ chaos_prob_arg
      $ chaos_seed_arg $ chaos_delay_arg $ die_after_arg $ quiet_arg
      $ events_out_arg $ json_arg)

(* report *)

module L = Ocapi_obs.Ledger

let report_cmd =
  let ledger_arg =
    let doc =
      "Perf ledger JSONL to read (default: $(b,\\$OCAPI_LEDGER) or \
       PERF_LEDGER.jsonl)."
    in
    Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)
  in
  let events_arg =
    let doc = "Structured event log JSONL to summarize alongside the ledger." in
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)
  in
  let html_arg =
    let doc =
      "Also write a self-contained static HTML trend page (inline CSS, no \
       external assets) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "html" ] ~docv:"FILE" ~doc)
  in
  let gate_arg =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Act as a regression gate: exit non-zero when the worst verdict \
             reaches --fail-on.")
  in
  let fail_on_arg =
    let doc =
      "Verdict severity that fails the gate: $(b,collapsed) (throughput \
       collapse beyond --hard-tolerance) or $(b,regressed) (any regression \
       beyond --tolerance)."
    in
    Arg.(
      value
      & opt (Arg.enum [ ("collapsed", `Collapsed); ("regressed", `Regressed) ])
          `Collapsed
      & info [ "fail-on" ] ~docv:"SEVERITY" ~doc)
  in
  let window_arg =
    let doc = "Baseline window: median of up to N prior same-series entries." in
    Arg.(value & opt int 5 & info [ "window" ] ~docv:"N" ~doc)
  in
  let tolerance_arg =
    let doc = "Relative drop below baseline counted as a regression." in
    Arg.(value & opt float 0.2 & info [ "tolerance" ] ~docv:"FRAC" ~doc)
  in
  let hard_tolerance_arg =
    let doc = "Relative drop below baseline counted as a collapse." in
    Arg.(value & opt float 0.5 & info [ "hard-tolerance" ] ~docv:"FRAC" ~doc)
  in
  let run ledger events html json gate fail_on window tolerance hard_tolerance
      =
    let ledger =
      match ledger with Some p -> p | None -> L.default_path ()
    in
    with_input ("ledger " ^ ledger) (L.load ~path:ledger ()) @@ fun entries ->
    with_input "events"
      (Option.fold ~none:(Ok (Ok [])) ~some:Ocapi_obs.Events.load events)
    @@ fun evs ->
    reporting_errors @@ fun () ->
    let vs =
      L.verdicts ~window ~tolerance ~hard_tolerance entries
    in
    if json then
      print_endline (Ocapi_obs.Json.to_string (L.verdicts_json vs))
    else if entries = [] then
      Printf.printf
        "perf ledger %s: no entries yet (run `make perf-gate` to \
         record some)\n"
        ledger
    else begin
      Printf.printf "perf ledger %s: %d entries, %d series\n" ledger
        (List.length entries) (List.length vs);
      Format.printf "%a@."
        (fun ppf ->
          L.pp_trends ~window ~tolerance ~hard_tolerance ppf)
        entries;
      if evs <> [] then begin
        let counts = Hashtbl.create 8 in
        List.iter
          (fun j ->
            match Ocapi_obs.Json.member "event" j with
            | Some (Ocapi_obs.Json.String k) ->
              Hashtbl.replace counts k
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
            | _ -> ())
          evs;
        Printf.printf "event log: %d events (%s)\n" (List.length evs)
          (String.concat ", "
             (Hashtbl.fold
                (fun k n acc -> Printf.sprintf "%s %d" k n :: acc)
                counts []
             |> List.sort String.compare))
      end
    end;
    (match html with
    | Some path ->
      let page =
        L.html_page ~events:evs ~window ~tolerance ~hard_tolerance entries
      in
      publish path page;
      Printf.printf "wrote %s\n" path
    | None -> ());
    if gate then begin
      let worst = L.worst_status vs in
      let failed =
        match (worst, fail_on) with
        | L.Collapsed, _ -> true
        | L.Regressed, `Regressed -> true
        | _ -> false
      in
      List.iter
        (fun v ->
          match v.L.v_status with
          | L.Regressed | L.Collapsed ->
            Printf.printf
              "perf gate: %s [%s] %s: %.4g %s vs baseline %.4g (%+.1f%%)\n"
              (L.status_label v.L.v_status)
              v.L.v_engine v.L.v_bench v.L.v_latest.L.en_value
              v.L.v_latest.L.en_unit v.L.v_baseline (v.L.v_delta *. 100.)
          | _ -> ())
        vs;
      Printf.printf "perf gate: worst status = %s (failing on %s)\n"
        (L.status_label worst)
        (match fail_on with
        | `Collapsed -> "collapsed"
        | `Regressed -> "regressed");
      if failed then 1 else 0
    end
    else 0
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render the perf ledger (and optionally an event log) as a terminal \
          trend summary, a machine-readable verdict (--json), a regression \
          gate (--gate), or a static HTML page (--html).")
    Term.(
      const run $ ledger_arg $ events_arg $ html_arg $ json_arg $ gate_arg
      $ fail_on_arg $ window_arg $ tolerance_arg $ hard_tolerance_arg)

(* fuzz *)

let fuzz_cmd =
  let fuzz_seed_arg =
    let doc = "Campaign seed; per-design generator seeds derive from it." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let count_arg =
    let doc = "Fresh generated designs to check." in
    Arg.(value & opt int 50 & info [ "count" ] ~docv:"N" ~doc)
  in
  let size_arg =
    let doc = "Generator size knob (1-4): larger draws bigger designs." in
    Arg.(value & opt int 2 & info [ "size" ] ~docv:"K" ~doc)
  in
  let engines_arg =
    let doc =
      "Comma-separated engine roster to cross-check (default: every \
       registered engine)."
    in
    Arg.(value & opt (some string) None & info [ "engines" ] ~docv:"A,B" ~doc)
  in
  let corpus_arg =
    let doc =
      "JSONL reproducer corpus: its entries are replayed before the fresh \
       designs, and this run's new reproducers are appended to it."
    in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"FILE" ~doc)
  in
  let repro_out_arg =
    let doc =
      "Also write this run's reproducers (shrunk failing genomes) to $(docv), \
       replacing it.  The file is written even when empty, so CI can upload \
       it unconditionally."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "reproducers-out" ] ~docv:"FILE" ~doc)
  in
  let shrink_arg =
    let doc = "Shrink failing designs to minimal reproducers." in
    Arg.(value & opt bool true & info [ "shrink" ] ~docv:"BOOL" ~doc)
  in
  let deep_arg =
    let doc = "Also cross-check SEU classification and stuck-at determinism." in
    Arg.(value & flag & info [ "deep" ] ~doc)
  in
  let self_test_arg =
    let doc =
      "Harness self-test: cross-check the interpreter against a deliberately \
       broken engine and require the campaign to catch it (exit 0 when every \
       design diverges and a shrunk reproducer is produced)."
    in
    Arg.(value & flag & info [ "self-test" ] ~doc)
  in
  let run seed count size engines corpus repro_out shrink deep domains
      self_test json =
    let resolve names =
      List.fold_left
        (fun acc n ->
          match acc with
          | Error _ -> acc
          | Ok l -> (
            match Ocapi_engine.find n with
            | Some e -> Ok (Ocapi_engine.name_of e :: l)
            | None -> Error n))
        (Ok []) names
      |> Result.map List.rev
    in
    let engines =
      if self_test then
        Ok (Some [ "interp"; Ocapi_diff.register_buggy_engine () ])
      else
        match engines with
        | None -> Ok None
        | Some s -> (
          match resolve (String.split_on_char ',' s) with
          | Ok l -> Ok (Some l)
          | Error n -> Error n)
    in
    match engines with
    | Error n -> unknown_engine n
    | Ok engines -> (
      with_input "corpus"
        (Option.fold ~none:(Ok (Ok [])) ~some:Ocapi_diff.Corpus.load corpus)
      @@ fun entries ->
      reporting_errors @@ fun () ->
      let report =
        Ocapi_diff.fuzz ?engines ~deep ~shrink_failures:shrink ~size ~domains
          ~corpus:entries ~seed ~count ()
      in
      if json then
        print_endline
          (Ocapi_obs.Json.to_string (Ocapi_diff.report_json report))
      else Format.printf "%a@." Ocapi_diff.pp_report report;
      let reproducers = Ocapi_diff.report_reproducers report in
      (match (corpus, reproducers) with
      | Some path, _ :: _ ->
        (match Ocapi_diff.Corpus.append path reproducers with
        | Ok () -> ()
        | Error msg ->
          Ocapi_error.fail Internal ~engine:"cli" "cannot append to %s" msg);
        if not json then
          Printf.printf "appended %d reproducer(s) to %s\n"
            (List.length reproducers) path
      | _ -> ());
      (match repro_out with
      | Some path ->
        publish path
          (String.concat ""
             (List.map
                (fun e ->
                  Ocapi_obs.Json.to_string (Ocapi_diff.Corpus.entry_json e)
                  ^ "\n")
                reproducers));
        if not json then
          Printf.printf "wrote %s (%d reproducer(s))\n" path
            (List.length reproducers)
      | None -> ());
      if self_test then
        if
          report.Ocapi_diff.fz_divergent > 0
          && List.exists
               (fun r -> r.Ocapi_diff.dr_shrunk <> None)
               report.Ocapi_diff.fz_results
        then begin
          if not json then
            print_endline
              "self-test: the harness caught the injected engine bug and \
               shrank a reproducer";
          0
        end
        else begin
          Printf.eprintf
            "self-test FAILED: the injected engine bug went undetected\n";
          1
        end
      else if
        report.Ocapi_diff.fz_divergent = 0
        && report.Ocapi_diff.fz_replay_failures = 0
      then 0
      else 1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential-fuzz the engine stack: generate seeded random designs, \
          run each on every engine, diff the probe histories (plus netlist \
          equivalence and, with --deep, fault-campaign cross-checks), and \
          shrink any failure to a replayable corpus reproducer.  The report \
          is canonical: bit-identical for any --domains value.")
    Term.(
      const run $ fuzz_seed_arg $ count_arg $ size_arg $ engines_arg
      $ corpus_arg $ repro_out_arg $ shrink_arg $ deep_arg $ domains_arg
      $ self_test_arg $ json_arg)

let () =
  let info =
    Cmd.info "ocapi" ~version:Ocapi.version
      ~doc:"A programming environment for the design of complex high speed ASICs."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ check_cmd; simulate_cmd; synth_cmd; emit_cmd; profile_cmd;
            fault_cmd; batch_cmd; serve_cmd; worker_cmd; report_cmd;
            fuzz_cmd ]))
