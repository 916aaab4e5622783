(* Tests for the job runner with process workers — what `ocapi serve`
   runs: deterministic seeded backoff, journal round-trip and torn-line
   tolerance, replay semantics, the worker process body, and the
   supervisor itself — driven by tiny shell stub workers so crashes,
   poison jobs and silent hangs are cheap and deterministic.  Also the
   disk-cache robustness satellites: corrupted and truncated entries
   must degrade to counted misses, and an unwritable cache directory
   must not break in-memory operation. *)

module Json = Ocapi_obs.Json

let json_of s =
  match Json.of_string s with Ok j -> j | Error e -> failwith e

(* One simulate request per seed: distinct seeds give distinct dedup
   keys, so tests control exactly how many executions they create. *)
let sim_request seed =
  json_of
    (Printf.sprintf
       "{\"kind\": \"simulate\", \"design\": \"hcor\", \"engine\": \
        \"compiled\", \"cycles\": 4, \"seed\": %d}"
       seed)

let tmp_dir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ocapi-service-%s-%d" name (Unix.getpid ()))
  in
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
       (try Sys.readdir d with Sys_error _ -> [||])
   with Sys_error _ -> ());
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rm_rf d =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
    (try Sys.readdir d with Sys_error _ -> [||]);
  try Unix.rmdir d with Unix.Unix_error _ -> ()

(* A stub worker: /bin/sh -c SCRIPT worker <appended args>, so inside
   SCRIPT the supervisor's appended arguments are $1.. — in particular
   "$4" is the artifact path.  Stubs bypass the real job body, which
   lets a test script crash, hang or succeed on demand while the
   supervisor sees the genuine protocol. *)
let stub script = [ "/bin/sh"; "-c"; script; "worker" ]

let write_artifact = {|printf 'stub\n' > "$4.t" && mv "$4.t" "$4"; echo done|}

let config ~name ~script =
  let state = tmp_dir (name ^ "-state") in
  let artifacts = tmp_dir (name ^ "-artifacts") in
  ( state,
    artifacts,
    {
      Ocapi_service.default_config with
      cf_workers = 2;
      cf_artifact_dir = artifacts;
      cf_worker_kind =
        Ocapi_service.Processes { cmd = stub script; state_dir = state };
      cf_retries = 3;
      cf_backoff_base = 0.05;
      cf_backoff_cap = 0.2;
    } )

(* --- backoff -------------------------------------------------------------- *)

let test_backoff () =
  let d ~attempt =
    Ocapi_service.backoff_delay ~base:1.0 ~cap:1e9 ~seed:3 ~corr:"abc" ~attempt
  in
  Alcotest.(check (float 0.0)) "deterministic" (d ~attempt:2) (d ~attempt:2);
  let in_range x lo hi = x >= lo && x < hi in
  Alcotest.(check bool) "attempt 1 in [1,1.5)" true (in_range (d ~attempt:1) 1.0 1.5);
  Alcotest.(check bool) "attempt 2 in [2,3)" true (in_range (d ~attempt:2) 2.0 3.0);
  Alcotest.(check bool) "attempt 3 in [4,6)" true (in_range (d ~attempt:3) 4.0 6.0);
  Alcotest.(check bool) "jitter decorrelates jobs" true
    (Ocapi_service.backoff_delay ~base:1.0 ~cap:1e9 ~seed:3 ~corr:"abc"
       ~attempt:1
    <> Ocapi_service.backoff_delay ~base:1.0 ~cap:1e9 ~seed:3 ~corr:"xyz"
         ~attempt:1);
  Alcotest.(check (float 0.0)) "cap clamps" 2.0
    (Ocapi_service.backoff_delay ~base:1.0 ~cap:2.0 ~seed:3 ~corr:"abc"
       ~attempt:30);
  Alcotest.check_raises "attempt 0 rejected"
    (Invalid_argument "Ocapi_service.backoff_delay: attempt < 1") (fun () ->
      ignore
        (Ocapi_service.backoff_delay ~base:1.0 ~cap:2.0 ~seed:3 ~corr:"a"
           ~attempt:0))

(* --- journal -------------------------------------------------------------- *)

let sample_entries =
  Ocapi_service.
    [
      J_submitted
        {
          js_corr = "c1";
          js_key = "k1";
          js_label = "job-1";
          js_artifact = "a1.json";
          js_request = Json.Obj [ ("kind", Json.String "simulate") ];
          js_dedup = false;
        };
      J_started { jt_corr = "c1"; jt_attempt = 1 };
      J_crashed { jc_corr = "c1"; jc_attempt = 1; jc_reason = "signal sigkill" };
      J_retried { jr_corr = "c1"; jr_attempt = 2; jr_backoff = 0.125 };
      J_completed { jd_corr = "c1"; jd_artifact = "a1.json" };
      J_failed { jf_corr = "c2"; jf_code = "retries-exhausted"; jf_message = "m" };
      J_rejected { jx_corr = "c3"; jx_label = "job-3" };
    ]

let test_journal_roundtrip () =
  List.iter
    (fun e ->
      let line = Json.to_string (Ocapi_service.entry_json e) in
      match Json.of_string line with
      | Error m -> Alcotest.failf "reparse: %s" m
      | Ok j -> (
        match Ocapi_service.entry_of_json j with
        | Error m -> Alcotest.failf "decode: %s" m
        | Ok e' ->
          Alcotest.(check bool) ("round-trip: " ^ line) true (e = e')))
    sample_entries;
  (* And through an actual file. *)
  let dir = tmp_dir "journal-rt" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let path = Filename.concat dir "journal.jsonl" in
      List.iter (Ocapi_service.journal_append path) sample_entries;
      match Ocapi_service.journal_load path with
      | Error m -> Alcotest.failf "load: %s" m
      | Ok es ->
        Alcotest.(check bool) "file round-trip" true (es = sample_entries))

let test_journal_torn_lines () =
  let dir = tmp_dir "journal-torn" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let path = Filename.concat dir "journal.jsonl" in
      let write lines =
        let oc = open_out_bin path in
        List.iter (fun l -> output_string oc (l ^ "\n")) lines;
        close_out oc
      in
      let good = {|{"ev":"started","corr":"c1","attempt":1}|} in
      (* A line torn by a crash mid-append: tolerated iff final. *)
      write [ good; {|{"ev":"comple|} ];
      (match Ocapi_service.journal_load path with
      | Ok [ Ocapi_service.J_started _ ] -> ()
      | Ok _ -> Alcotest.fail "torn final line should be dropped"
      | Error m -> Alcotest.failf "torn final line should not error: %s" m);
      write [ {|{"ev":"comple|}; good ];
      (match Ocapi_service.journal_load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "torn interior line is corruption");
      (* Unknown event kinds are skipped: a newer server's journal still
         replays on an older one. *)
      write [ good; {|{"ev":"frobnicated","corr":"c9"}|}; good ];
      (match Ocapi_service.journal_load path with
      | Ok [ Ocapi_service.J_started _; Ocapi_service.J_started _ ] -> ()
      | Ok _ -> Alcotest.fail "unknown events should be skipped"
      | Error m -> Alcotest.failf "unknown events should not error: %s" m);
      (* A missing journal is an empty one. *)
      Sys.remove path;
      match Ocapi_service.journal_load path with
      | Ok [] -> ()
      | _ -> Alcotest.fail "missing journal should load empty")

(* --- replay --------------------------------------------------------------- *)

let submitted ?(dedup = false) corr key =
  Ocapi_service.J_submitted
    {
      js_corr = corr;
      js_key = key;
      js_label = "job-" ^ corr;
      js_artifact = corr ^ ".json";
      js_request = Json.Obj [];
      js_dedup = dedup;
    }

let test_replay () =
  let open Ocapi_service in
  let r =
    replay
      [
        (* c1: completed — a dedup source on restart. *)
        submitted "c1" "k1";
        J_started { jt_corr = "c1"; jt_attempt = 1 };
        J_completed { jd_corr = "c1"; jd_artifact = "c1.json" };
        (* c2: in flight when the server died, after one real crash:
           pending again with exactly that one attempt consumed. *)
        submitted "c2" "k2";
        J_started { jt_corr = "c2"; jt_attempt = 1 };
        J_crashed { jc_corr = "c2"; jc_attempt = 1; jc_reason = "signal sigkill" };
        J_retried { jr_corr = "c2"; jr_attempt = 2; jr_backoff = 0.1 };
        J_started { jt_corr = "c2"; jt_attempt = 2 };
        (* c3: journaled but never started: pending, no budget spent. *)
        submitted "c3" "k3";
        (* c4: poisoned earlier, then resubmitted — failed keys stay
           resubmittable, so the later submission wins. *)
        submitted "c4" "k4";
        J_failed { jf_corr = "c4"; jf_code = "retries-exhausted"; jf_message = "" };
        submitted "c4" "k4";
        (* dedup submissions never create work. *)
        submitted ~dedup:true "c1" "k1";
      ]
  in
  Alcotest.(check (list (pair string string))) "completed" [ ("k1", "c1.json") ]
    r.rv_completed;
  Alcotest.(check (list string)) "pending order" [ "c2"; "c3"; "c4" ]
    (List.map (fun p -> p.p_corr) r.rv_pending);
  Alcotest.(check (list int))
    "server death consumes no retry budget, crashes do" [ 1; 0; 0 ]
    (List.map (fun p -> p.p_attempts) r.rv_pending);
  Alcotest.(check (list (pair string string))) "no terminal failures left" []
    r.rv_failed

(* --- the supervisor, driven by stub workers ------------------------------- *)

let serve_quiet cfg ~requests = Ocapi_service.serve cfg ~requests

let test_serve_success () =
  let state, artifacts, cfg =
    config ~name:"ok" ~script:("echo hb; " ^ write_artifact)
  in
  Fun.protect
    ~finally:(fun () ->
      rm_rf state;
      rm_rf artifacts)
    (fun () ->
      let s = serve_quiet cfg ~requests:[ sim_request 1; sim_request 2 ] in
      Alcotest.(check int) "completed" 2 s.Ocapi_service.sm_completed;
      Alcotest.(check int) "no crashes" 0 s.sm_crashes;
      Alcotest.(check int) "artifacts on disk" 2
        (Array.length (Sys.readdir artifacts));
      (* Submitting the same manifest again dedups against the journal:
         nothing re-executes. *)
      let s2 = serve_quiet cfg ~requests:[ sim_request 1; sim_request 2 ] in
      Alcotest.(check int) "all deduped" 2 s2.Ocapi_service.sm_deduped;
      Alcotest.(check int) "nothing re-ran" 0 s2.sm_completed)

let test_serve_crash_retry () =
  let marker =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ocapi-service-crashonce-%d" (Unix.getpid ()))
  in
  (try Sys.remove marker with Sys_error _ -> ());
  (* First attempt self-destructs; the retry succeeds. *)
  let script =
    Printf.sprintf {|if [ -f %s ]; then %s; else : > %s; kill -9 $$; fi|}
      marker write_artifact marker
  in
  let state, artifacts, cfg = config ~name:"retry" ~script in
  Fun.protect
    ~finally:(fun () ->
      rm_rf state;
      rm_rf artifacts;
      try Sys.remove marker with Sys_error _ -> ())
    (fun () ->
      Ocapi_obs.Events.clear ();
      Ocapi_obs.Events.set_enabled true;
      let s = serve_quiet cfg ~requests:[ sim_request 1 ] in
      Ocapi_obs.Events.set_enabled false;
      Alcotest.(check int) "one crash" 1 s.Ocapi_service.sm_crashes;
      Alcotest.(check int) "one retry" 1 s.sm_retries;
      Alcotest.(check int) "completed after retry" 1 s.sm_completed;
      Alcotest.(check int) "not poisoned" 0 s.sm_poisoned;
      let kinds =
        List.map
          (fun e -> e.Ocapi_obs.Events.e_kind)
          (Ocapi_obs.Events.events ())
      in
      Alcotest.(check bool) "worker_crashed observable" true
        (List.mem "worker_crashed" kinds);
      Alcotest.(check bool) "job_retried observable" true
        (List.mem "job_retried" kinds))

let test_serve_poison () =
  let state, artifacts, cfg = config ~name:"poison" ~script:"kill -9 $$" in
  let cfg = { cfg with Ocapi_service.cf_retries = 2 } in
  Fun.protect
    ~finally:(fun () ->
      rm_rf state;
      rm_rf artifacts)
    (fun () ->
      let s = serve_quiet cfg ~requests:[ sim_request 1 ] in
      Alcotest.(check int) "two crashed attempts" 2 s.Ocapi_service.sm_crashes;
      Alcotest.(check int) "poisoned" 1 s.sm_poisoned;
      Alcotest.(check int) "failed terminally" 1 s.sm_failed;
      Alcotest.(check int) "nothing completed" 0 s.sm_completed;
      (* The journal's verdict is the structured error code. *)
      match
        Ocapi_service.journal_load (Filename.concat state "journal.jsonl")
      with
      | Error m -> Alcotest.failf "journal: %s" m
      | Ok entries ->
        Alcotest.(check bool) "journal records retries-exhausted" true
          (List.exists
             (function
               | Ocapi_service.J_failed { jf_code = "retries-exhausted"; _ } ->
                 true
               | _ -> false)
             entries))

let test_serve_heartbeat_backstop () =
  (* A silently wedged worker: no heartbeats, no exit.  The supervisor
     must kill(9) it past the heartbeat timeout. *)
  let state, artifacts, cfg = config ~name:"hb" ~script:"sleep 30" in
  let cfg =
    { cfg with Ocapi_service.cf_retries = 1; cf_heartbeat_timeout = 0.4 }
  in
  Fun.protect
    ~finally:(fun () ->
      rm_rf state;
      rm_rf artifacts)
    (fun () ->
      let s = serve_quiet cfg ~requests:[ sim_request 1 ] in
      Alcotest.(check int) "reaped as a crash" 1 s.Ocapi_service.sm_crashes;
      Alcotest.(check int) "poisoned (budget 1)" 1 s.sm_poisoned;
      Alcotest.(check bool) "finished promptly, not after 30s" true
        (s.sm_seconds < 10.);
      match
        Ocapi_service.journal_load (Filename.concat state "journal.jsonl")
      with
      | Error m -> Alcotest.failf "journal: %s" m
      | Ok entries ->
        Alcotest.(check bool) "crash reason is the heartbeat kill" true
          (List.exists
             (function
               | Ocapi_service.J_crashed { jc_reason = "heartbeat"; _ } -> true
               | _ -> false)
             entries))

let test_serve_overload () =
  let state, artifacts, cfg =
    config ~name:"overload" ~script:write_artifact
  in
  let cfg = { cfg with Ocapi_service.cf_max_queue = 1 } in
  Fun.protect
    ~finally:(fun () ->
      rm_rf state;
      rm_rf artifacts)
    (fun () ->
      let s =
        serve_quiet cfg ~requests:[ sim_request 1; sim_request 2; sim_request 3 ]
      in
      Alcotest.(check int) "bounded queue rejects the overflow" 2
        s.Ocapi_service.sm_rejected;
      Alcotest.(check int) "the admitted job ran" 1 s.sm_completed)

let test_serve_recovery_exactly_once () =
  (* The tentpole crash shape: the server died after journaling a job's
     submission and start but before any completion — the artifact was
     never written.  A restarted server must run the job exactly once;
     a second restart must find nothing to do.  Recovered jobs replay
     from the journal alone, so no design registry is involved. *)
  let log =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ocapi-service-runlog-%d" (Unix.getpid ()))
  in
  (try Sys.remove log with Sys_error _ -> ());
  let script = Printf.sprintf {|echo ran >> %s; %s|} log write_artifact in
  let state, artifacts, cfg = config ~name:"recover" ~script in
  Fun.protect
    ~finally:(fun () ->
      rm_rf state;
      rm_rf artifacts;
      try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      let jr = Filename.concat state "journal.jsonl" in
      Ocapi_service.journal_append jr (submitted "c1" "k1");
      Ocapi_service.journal_append jr
        (Ocapi_service.J_started { jt_corr = "c1"; jt_attempt = 1 });
      let s = serve_quiet cfg ~requests:[] in
      Alcotest.(check int) "one job recovered" 1 s.Ocapi_service.sm_recovered;
      Alcotest.(check int) "it completed" 1 s.sm_completed;
      Alcotest.(check bool) "artifact exists" true
        (Sys.file_exists (Filename.concat artifacts "c1.json"));
      let runs () =
        let ic = open_in log in
        let n = ref 0 in
        (try
           while true do
             ignore (input_line ic);
             incr n
           done
         with End_of_file -> ());
        close_in ic;
        !n
      in
      Alcotest.(check int) "executed exactly once" 1 (runs ());
      let s2 = serve_quiet cfg ~requests:[] in
      Alcotest.(check int) "second restart recovers nothing" 0
        s2.Ocapi_service.sm_recovered;
      Alcotest.(check int) "and runs nothing" 0 s2.sm_completed;
      Alcotest.(check int) "still exactly one execution" 1 (runs ()))

(* A server killed between a worker's kill and its reap leaves the
   worker's [<artifact>.<pid>.<domain>.tmp] in the artifact tree.  The
   restarted server sweeps it before relaunching the job, so the tree
   equals that of a run that never crashed. *)
let test_serve_recovery_sweeps_stale_temps () =
  let recover name ~plant =
    let state, artifacts, cfg = config ~name ~script:write_artifact in
    let jr = Filename.concat state "journal.jsonl" in
    Ocapi_service.journal_append jr (submitted "c1" "k1");
    Ocapi_service.journal_append jr
      (Ocapi_service.J_started { jt_corr = "c1"; jt_attempt = 1 });
    let stale = Filename.concat artifacts "c1.json.4242.0.tmp" in
    if plant then Out_channel.with_open_bin stale (fun oc -> output_string oc "torn");
    let s = serve_quiet cfg ~requests:[] in
    let tree =
      Sys.readdir artifacts |> Array.to_list |> List.sort compare
      |> List.map (fun f ->
             (f, In_channel.with_open_bin (Filename.concat artifacts f) In_channel.input_all))
    in
    rm_rf state;
    rm_rf artifacts;
    (s, tree)
  in
  let _, reference = recover "sweep-ref" ~plant:false in
  let s, tree = recover "sweep" ~plant:true in
  Alcotest.(check int) "the job completed" 1 s.Ocapi_service.sm_completed;
  Alcotest.(check (list (pair string string))) "tree = reference run's" reference tree

let test_serve_invalid_line () =
  let state, artifacts, cfg = config ~name:"invalid" ~script:write_artifact in
  Fun.protect
    ~finally:(fun () ->
      rm_rf state;
      rm_rf artifacts)
    (fun () ->
      let bad = json_of {|{"kind": "simulate", "design": "hcor", "cycles": 0}|} in
      let s = serve_quiet cfg ~requests:[ bad; sim_request 1 ] in
      Alcotest.(check int) "the bad line failed" 1 s.Ocapi_service.sm_failed;
      Alcotest.(check int) "the good line ran" 1 s.sm_completed;
      match
        Ocapi_service.journal_load (Filename.concat state "journal.jsonl")
      with
      | Error m -> Alcotest.failf "journal: %s" m
      | Ok entries ->
        Alcotest.(check bool) "the failure is journaled" true
          (List.exists
             (function
               | Ocapi_service.J_failed { jf_code = "unsupported"; _ } -> true
               | _ -> false)
             entries))

(* The worker body returns as soon as its [done] line is written, not
   after the heartbeat thread's next wake-up. *)
let test_worker_prompt_exit () =
  let dir = tmp_dir "worker-exit" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let artifact = Filename.concat dir "job.json" in
      let t0 = Unix.gettimeofday () in
      let code =
        Ocapi_service.worker_main ~heartbeat_every:5.0
          ~request:(Json.to_string (sim_request 1))
          ~artifact ()
      in
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "artifact written" true (Sys.file_exists artifact);
      Alcotest.(check bool)
        (Printf.sprintf "returned in %.2fs, under 1s" dt)
        true (dt < 1.0))

(* An `ocapi worker` whose supervisor is gone — its stdout pipe has no
   reader — publishes nothing and exits with the failure code, instead
   of dying of SIGPIPE at whatever point its next line falls, such as
   between its temp artifact and the rename. *)
let test_orphaned_worker_publishes_nothing () =
  let cli =
    Filename.concat (Filename.concat Filename.parent_dir_name "bin") "ocapi_cli.exe"
  in
  let dir = tmp_dir "orphan" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let request =
        {|{"kind": "simulate", "design": "hcor", "engine": "compiled", "cycles": 4}|}
      in
      let r, w = Unix.pipe ~cloexec:true () in
      Unix.close r;
      let pid =
        Unix.create_process cli
          [| cli; "worker"; "--request"; request; "--artifact";
             Filename.concat dir "job.json" |]
          Unix.stdin w Unix.stderr
      in
      Unix.close w;
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "exits with the failure code" true
        (status = Unix.WEXITED Ocapi_service.exit_failed);
      Alcotest.(check (array string)) "no artifact, no temp file" [||]
        (Sys.readdir dir))

(* --- disk-cache robustness ------------------------------------------------ *)

let cache_teardown dir () =
  Flow.Cache.disable ();
  Flow.Cache.clear ();
  Flow.Cache.reset_stats ();
  rm_rf dir

(* The run whose disk entry the tests below damage: 16 cycles of
   [Test_engine.tiny] on the compiled engine, one entry per cold run. *)
let simulate () = Flow.simulate ~engine:"compiled" (Test_engine.tiny ()) ~cycles:16

let test_cache_corrupted_entry () =
  let dir = tmp_dir "cache-corrupt" in
  Fun.protect ~finally:(cache_teardown dir)
    (fun () ->
      Flow.Cache.disable ();
      Flow.Cache.clear ();
      Flow.Cache.reset_stats ();
      let histories = simulate () in
      Flow.Cache.enable ~dir ();
      ignore (simulate ());
      (* Overwrite the stored file with garbage, then with a truncated
         prefix: both must read back as a plain (counted) miss, not an
         exception, and the run recomputes the same histories. *)
      let file =
        match Sys.readdir dir with
        | [| f |] -> Filename.concat dir f
        | _ -> Alcotest.fail "expected exactly one cache file"
      in
      let size = (Unix.stat file).Unix.st_size in
      let rewrite bytes =
        let oc = open_out_bin file in
        output_string oc bytes;
        close_out oc
      in
      let rerun what =
        Flow.Cache.clear ();
        Flow.Cache.reset_stats ();
        Alcotest.(check bool) (what ^ " is a miss") true (simulate () = histories);
        Alcotest.(check int) "the miss is counted" 1
          (Flow.Cache.stats ()).Flow.Cache.misses
      in
      rewrite "not a marshalled cache entry at all";
      rerun "garbage entry";
      (* The rerun stored the entry again; truncate it to half: a torn
         write from a killed process. *)
      let full =
        let ic = open_in_bin file in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      Alcotest.(check int) "entry restored" size (String.length full);
      rewrite (String.sub full 0 (size / 2));
      rerun "truncated entry";
      (* And the slot recovers: the entry the rerun stored serves hits
         again. *)
      Flow.Cache.clear ();
      Flow.Cache.reset_stats ();
      Alcotest.(check bool) "recovered after restore" true (simulate () = histories);
      Alcotest.(check int) "served from disk" 1
        (Flow.Cache.stats ()).Flow.Cache.disk_hits)

let test_cache_unwritable_dir () =
  (* Point the cache at a path occupied by a regular file: every disk
     write fails, silently — in-memory caching must keep working. *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ocapi-service-cachefile-%d" (Unix.getpid ()))
  in
  let oc = open_out_bin path in
  output_string oc "occupied";
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      Flow.Cache.disable ();
      Flow.Cache.clear ();
      Flow.Cache.reset_stats ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Flow.Cache.disable ();
      Flow.Cache.clear ();
      Flow.Cache.reset_stats ();
      Flow.Cache.enable ~dir:path ();
      let histories = simulate () in
      let s = Flow.Cache.stats () in
      Alcotest.(check int) "no disk write recorded" 0 s.Flow.Cache.disk_writes;
      Alcotest.(check bool) "in-memory hit still served" true
        (simulate () = histories && (Flow.Cache.stats ()).Flow.Cache.hits = 1))

let suite =
  [
    Alcotest.test_case "seeded exponential backoff" `Quick test_backoff;
    Alcotest.test_case "journal round-trip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal torn and unknown lines" `Quick
      test_journal_torn_lines;
    Alcotest.test_case "replay semantics" `Quick test_replay;
    Alcotest.test_case "serve: success and journal dedup" `Quick
      test_serve_success;
    Alcotest.test_case "serve: crash, retry, converge" `Quick
      test_serve_crash_retry;
    Alcotest.test_case "serve: poisoned job" `Quick test_serve_poison;
    Alcotest.test_case "serve: heartbeat backstop" `Quick
      test_serve_heartbeat_backstop;
    Alcotest.test_case "serve: bounded-queue backpressure" `Quick
      test_serve_overload;
    Alcotest.test_case "serve: crash recovery exactly once" `Quick
      test_serve_recovery_exactly_once;
    Alcotest.test_case "serve: recovery sweeps stale temp artifacts" `Quick
      test_serve_recovery_sweeps_stale_temps;
    Alcotest.test_case "serve: invalid line is a journaled failure" `Quick
      test_serve_invalid_line;
    Alcotest.test_case "orphaned worker publishes nothing" `Quick
      test_orphaned_worker_publishes_nothing;
    Alcotest.test_case "worker returns after its last line" `Quick
      test_worker_prompt_exit;
    Alcotest.test_case "cache: corrupted and truncated entries" `Quick
      test_cache_corrupted_entry;
    Alcotest.test_case "cache: unwritable directory" `Quick
      test_cache_unwritable_dir;
  ]
