(* Tests for the job runner with domain workers — what `ocapi batch`
   runs: priority classes with FIFO order inside each, one validation
   at admission (a bad line fails alone), dedup of identical
   submissions, a cooperative timeout, the drain and abort signal path,
   the atomic artifact write (bit-identical to the direct library call;
   a failed write is a failed job), and the event log's correlation. *)

module Json = Ocapi_obs.Json

let json_of fmt =
  Printf.ksprintf
    (fun s -> match Json.of_string s with Ok j -> j | Error e -> failwith e)
    fmt

let sim ?(extra = "") ~label seed =
  json_of
    {|{"kind": "simulate", "design": "hcor", "engine": "compiled", "cycles": 4, "seed": %d, "label": %S%s}|}
    seed label extra

let dir_counter = ref 0

let rm_rf dir =
  let rec go path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> go (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then go dir

(* A fresh temporary directory path (the runner creates it), removed
   after [f]. *)
let with_dir f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ocapi-batch-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let cli =
  Filename.concat (Filename.concat Filename.parent_dir_name "bin") "ocapi_cli.exe"

(* Run [requests] on [workers] domain workers (or on `ocapi worker`
   processes journaling into [state_dir]); returns the summary and the
   streamed lines.  [on_line] sees each line as it is printed. *)
let run ?(workers = 1) ?state_dir ?(on_line = ignore) ~artifacts requests =
  let lines = ref [] in
  let s =
    Ocapi_service.serve
      {
        Ocapi_service.default_config with
        cf_workers = workers;
        cf_worker_kind =
          (match state_dir with
          | None -> Ocapi_service.Domains
          | Some state_dir ->
            Ocapi_service.Processes { cmd = [ cli; "worker" ]; state_dir });
        cf_artifact_dir = artifacts;
        cf_retries = 1;
        cf_on_line =
          Some
            (fun l ->
              lines := l :: !lines;
              on_line l);
      }
      ~requests
  in
  (s, List.rev !lines)

(* The artifact file name the runner gives [request]. *)
let artifact_file request =
  match Ocapi_batch.request_of_json request with
  | Ok r -> (Ocapi_batch.prepare_request r).pr_artifact_file
  | Error e -> Alcotest.fail e

(* The label of every [verb] line, in stream order. *)
let labels verb lines =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | v :: _corr :: label :: _ when v = verb -> Some label
      | _ -> None)
    lines

let with_events f =
  Ocapi_obs.Events.clear ();
  Ocapi_obs.Events.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Ocapi_obs.Events.set_enabled false;
      Ocapi_obs.Events.clear ())
    (fun () ->
      let r = f () in
      (r, Ocapi_obs.Events.events ()))

let failed_codes events =
  List.filter_map
    (fun e ->
      if e.Ocapi_obs.Events.e_kind = "job_failed" then
        match List.assoc_opt "code" e.e_fields with
        | Some (Json.String c) -> Some c
        | _ -> None
      else None)
    events

let test_priority_fifo () =
  with_dir (fun artifacts ->
      (* Interleave the classes in the manifest; with one worker the
         launch order must be class-major, submission-minor. *)
      let prio p label seed =
        sim ~label ~extra:(Printf.sprintf {|, "priority": %S|} p) seed
      in
      let _, lines =
        run ~artifacts
          [
            prio "low" "l1" 1;
            prio "normal" "n1" 2;
            prio "high" "h1" 3;
            prio "low" "l2" 4;
            prio "normal" "n2" 5;
            prio "high" "h2" 6;
          ]
      in
      Alcotest.(check (list string))
        "high first, FIFO within each class"
        [ "h1"; "h2"; "n1"; "n2"; "l1"; "l2" ]
        (labels "start" lines))

let test_timeout_is_structured () =
  with_dir (fun artifacts ->
      (* A campaign far longer than its budget: only the cooperative
         deadline checked between runs can stop it. *)
      let long =
        json_of
          {|{"kind": "seu", "design": "hcor", "engine": "compiled", "runs": 200000, "cycles": 48, "timeout": 0.2, "label": "spin"}|}
      in
      let t0 = Unix.gettimeofday () in
      let (s, _), events =
        with_events (fun () -> run ~artifacts [ long; sim ~label:"after" 1 ])
      in
      Alcotest.(check bool)
        "returned promptly, not a hang" true
        (Unix.gettimeofday () -. t0 < 10.0);
      Alcotest.(check (list string)) "failed with code timeout" [ "timeout" ]
        (failed_codes events);
      Alcotest.(check int) "counted as failed" 1 s.Ocapi_service.sm_failed;
      Alcotest.(check int) "the next job still ran" 1 s.sm_completed)

(* Cancellation is the signal path: a first signal stops launches
   (queued jobs never run), a second one cancels the running job at its
   next progress check. *)
let test_cancel_queued_job () =
  (* An [on_line] hook sending [signals] to this process once the first
     job has started. *)
  let on_first_start signals =
    let sent = ref false in
    fun l ->
      if (not !sent) && starts_with "start" l then begin
        sent := true;
        List.iter (Unix.kill (Unix.getpid ())) signals
      end
  in
  with_dir (fun artifacts ->
      (* A first job long enough that the signal lands while it runs. *)
      let first =
        json_of
          {|{"kind": "seu", "design": "hcor", "engine": "compiled", "runs": 300, "cycles": 24, "label": "first"}|}
      in
      let s, lines =
        run ~artifacts ~on_line:(on_first_start [ Sys.sigterm ])
          [ first; sim ~label:"victim" 2; sim ~label:"victim2" 3 ]
      in
      Alcotest.(check bool) "drained with work left" true s.Ocapi_service.sm_drained;
      Alcotest.(check (list string)) "only the running job ran" [ "first" ]
        (labels "start" lines);
      Alcotest.(check int) "and it completed" 1 s.sm_completed);
  with_dir (fun artifacts ->
      let long =
        json_of
          {|{"kind": "seu", "design": "hcor", "engine": "compiled", "runs": 200000, "cycles": 48, "label": "long"}|}
      in
      let t0 = Unix.gettimeofday () in
      let s, _ =
        run ~artifacts ~on_line:(on_first_start [ Sys.sigterm; Sys.sigint ]) [ long ]
      in
      Alcotest.(check bool) "aborted" true s.Ocapi_service.sm_aborted;
      Alcotest.(check bool) "the running job stopped early" true
        (Unix.gettimeofday () -. t0 < 10.0);
      Alcotest.(check int) "nothing completed" 0 s.sm_completed;
      Alcotest.(check bool) "no artifact written" true
        (Sys.readdir artifacts = [||]))

let test_coalesce_duplicates () =
  with_dir (fun dir ->
      let seu label =
        json_of
          {|{"kind": "seu", "design": "hcor", "engine": "compiled", "runs": 25, "cycles": 24, "seed": 3, "label": %S}|}
          label
      in
      (* Two identical submissions in one run: the second attaches to
         the first's queued execution. *)
      let domains = Filename.concat dir "domains" in
      let s1, _ = run ~artifacts:domains [ seu "seu"; seu "seu-dup" ] in
      Alcotest.(check int) "one in-flight dedup" 1 s1.Ocapi_service.sm_deduped;
      Alcotest.(check int) "one execution" 1 s1.sm_completed;
      let files = Sys.readdir domains in
      Alcotest.(check int) "one artifact" 1 (Array.length files);
      let report = read_file (Filename.concat domains files.(0)) in
      (* The journal's completed store: a resubmission after completion
         is served without re-running, and the report it is served is
         the same bytes (process workers, since only they journal). *)
      let state_dir = Filename.concat dir "state" in
      let processes = Filename.concat dir "processes" in
      let path = Filename.concat processes files.(0) in
      let s2, _ = run ~state_dir ~artifacts:processes [ seu "seu" ] in
      Alcotest.(check int) "executed once more" 1 s2.Ocapi_service.sm_completed;
      Alcotest.(check string) "same report on a process worker" report
        (read_file path);
      let s3, _ = run ~state_dir ~artifacts:processes [ seu "seu-again" ] in
      Alcotest.(check int) "completed-store dedup" 1 s3.Ocapi_service.sm_deduped;
      Alcotest.(check int) "nothing re-ran" 0 s3.sm_completed;
      Alcotest.(check string) "same report bytes" report (read_file path))

let test_artifact_equals_library () =
  with_dir (fun artifacts ->
      let request =
        json_of
          {|{"kind": "simulate", "design": "hcor", "engine": "interp", "cycles": 40, "seed": 1}|}
      in
      let s, _ = run ~workers:2 ~artifacts [ request ] in
      Alcotest.(check int) "completed" 1 s.Ocapi_service.sm_completed;
      let file = artifact_file request in
      Alcotest.(check (array string)) "only the artifact, no temp file"
        [| file |] (Sys.readdir artifacts);
      let expect =
        Json.to_string
          (Flow.simulate_result_json ~engine:"interp" ~cycles:40
             (Flow.simulate ~engine:"interp" ~seed:1 (Gallery.hcor ()) ~cycles:40))
        ^ "\n"
      in
      Alcotest.(check string) "artifact = direct library call" expect
        (read_file (Filename.concat artifacts file)))

let test_failed_write_is_failure () =
  with_dir (fun artifacts ->
      let request = sim ~label:"blocked" 7 in
      let file = artifact_file request in
      (* A directory where the artifact belongs: the rename must fail. *)
      let blocker = Filename.concat artifacts file in
      Unix.mkdir artifacts 0o755;
      Unix.mkdir blocker 0o755;
      let s, lines = run ~artifacts [ request ] in
      Alcotest.(check int) "job failed" 1 s.Ocapi_service.sm_failed;
      Alcotest.(check int) "nothing completed" 0 s.sm_completed;
      Alcotest.(check bool) "the message names the artifact path" true
        (List.exists
           (fun l -> starts_with "failed" l && contains ~sub:blocker l)
           lines);
      Alcotest.(check (array string)) "no temp file left behind" [| file |]
        (Sys.readdir artifacts))

let test_invalid_lines_fail_alone () =
  with_dir (fun artifacts ->
      let bad =
        [
          {|{"kind": "simulate", "design": "no-such-design"}|};
          {|{"kind": "simulate", "design": "hcor", "engine": "no-such-engine"}|};
          {|{"kind": "simulate", "design": "hcor", "cycles": 0}|};
          {|{"kind": "seu", "design": "hcor", "runs": -1}|};
          {|{"kind": "fuzz", "count": 0}|};
          {|{"kind": "simulate", "design": "hcor", "timeout": 0}|};
          {|{"kind": "simulate", "design": "hcor", "timeout": -2.5}|};
          {|{"kind": "simulate", "design": "hcor", "chaos": "crash"}|};
        ]
      in
      let (s, _), events =
        with_events (fun () ->
            run ~artifacts (sim ~label:"good" 1 :: List.map (json_of "%s") bad))
      in
      Alcotest.(check int) "each bad line is one failure" (List.length bad)
        s.Ocapi_service.sm_failed;
      Alcotest.(check (list string)) "structured: code unsupported"
        (List.map (fun _ -> "unsupported") bad)
        (failed_codes events);
      Alcotest.(check int) "the good line ran" 1 s.sm_completed;
      Alcotest.(check int) "one artifact" 1 (Array.length (Sys.readdir artifacts)))

(* `ocapi batch` itself: a bad line makes the exit code 1 (not the 125
   of an uncaught exception) and the rest of the manifest still runs. *)
let test_cli_exit_code () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let manifest = Filename.concat dir "jobs.jsonl" in
      Out_channel.with_open_bin manifest (fun oc ->
          output_string oc
            {|{"kind": "simulate", "design": "hcor", "engine": "compiled", "cycles": 0}
{"kind": "simulate", "design": "nope"}
{"kind": "simulate", "design": "hcor", "engine": "compiled", "cycles": 8}
|});
      let artifacts = Filename.concat dir "art" in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Unix.create_process cli
          [|
            cli; "batch"; "--manifest"; manifest; "--artifacts"; artifacts; "--quiet";
          |]
          Unix.stdin devnull devnull
      in
      Unix.close devnull;
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "exit 1" true (status = Unix.WEXITED 1);
      Alcotest.(check int) "the good line wrote its artifact" 1
        (Array.length (Sys.readdir artifacts)))

(* The structured event log: a dedup pair must produce one
   job_submitted + one job_deduped sharing a correlation id, every
   execution a job_started/job_completed with the same id, and a
   simulate execution the engine-level run_started/run_finished pair
   tagged with it too. *)
let test_event_log_lifecycle () =
  with_dir (fun artifacts ->
      let job label =
        json_of
          {|{"kind": "simulate", "design": "hcor", "engine": "interp", "cycles": 16, "seed": 42, "label": %S}|}
          label
      in
      let _, events =
        with_events (fun () -> run ~artifacts [ job "ev-sim"; job "ev-sim-dup" ])
      in
      let kinds k =
        List.filter (fun e -> e.Ocapi_obs.Events.e_kind = k) events
      in
      let corr_of k =
        match kinds k with
        | [ e ] -> e.Ocapi_obs.Events.e_corr
        | l ->
          Alcotest.fail (Printf.sprintf "%d %s events, expected 1" (List.length l) k)
      in
      let submitted = corr_of "job_submitted" in
      Alcotest.(check bool) "corr is a 12-char digest prefix" true
        (String.length submitted = 12);
      Alcotest.(check string) "dedup shares the corr" submitted
        (corr_of "job_deduped");
      Alcotest.(check string) "started shares the corr" submitted
        (corr_of "job_started");
      Alcotest.(check string) "completed shares the corr" submitted
        (corr_of "job_completed");
      Alcotest.(check string) "engine run_started shares the corr" submitted
        (corr_of "run_started");
      Alcotest.(check string) "engine run_finished shares the corr" submitted
        (corr_of "run_finished"))

let suite =
  [
    Alcotest.test_case "FIFO within priority classes" `Quick test_priority_fifo;
    Alcotest.test_case "event log lifecycle and correlation" `Quick
      test_event_log_lifecycle;
    Alcotest.test_case "timeout is a structured failure" `Quick
      test_timeout_is_structured;
    Alcotest.test_case "queued job cancellation" `Quick test_cancel_queued_job;
    Alcotest.test_case "duplicate submissions coalesce" `Quick
      test_coalesce_duplicates;
    Alcotest.test_case "artifact = direct library call" `Quick
      test_artifact_equals_library;
    Alcotest.test_case "failed artifact write is a failed job" `Quick
      test_failed_write_is_failure;
    Alcotest.test_case "invalid lines fail alone" `Quick
      test_invalid_lines_fail_alone;
    Alcotest.test_case "ocapi batch exits 1 on an invalid line" `Quick
      test_cli_exit_code;
  ]
