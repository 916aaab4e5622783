(* The job runner: one admission path, one priority queue, one
   supervising loop and two kinds of worker — in-process domains
   ([ocapi batch]) or supervised [ocapi worker] processes with a
   write-ahead journal, retries and heartbeats ([ocapi serve]).  See
   ocapi_service.mli for the architecture. *)

module Json = Ocapi_obs.Json

let ( let* ) = Result.bind

(* --- retry backoff -------------------------------------------------------- *)

let backoff_delay ~base ~cap ~seed ~corr ~attempt =
  if base <= 0. then invalid_arg "Ocapi_service.backoff_delay: base <= 0";
  if cap < base then invalid_arg "Ocapi_service.backoff_delay: cap < base";
  if attempt < 1 then invalid_arg "Ocapi_service.backoff_delay: attempt < 1";
  (* Jitter in [0, 0.5), drawn from a digest so the schedule is a pure
     function of (seed, corr, attempt): reproducible from the seed, yet
     decorrelated across jobs so a crashed fleet does not retry in
     lockstep. *)
  let d = Digest.string (Printf.sprintf "%d|%s|%d" seed corr attempt) in
  let u = int_of_string ("0x" ^ String.sub (Digest.to_hex d) 0 7) in
  let jitter = 0.5 *. (float_of_int u /. 268435456. (* 16^7 *)) in
  Float.min cap (ldexp base (attempt - 1) *. (1. +. jitter))

(* --- journal entries ------------------------------------------------------ *)

type entry =
  | J_submitted of {
      js_corr : string;
      js_key : string;
      js_label : string;
      js_artifact : string;
      js_request : Json.t;
      js_dedup : bool;
    }
  | J_started of { jt_corr : string; jt_attempt : int }
  | J_crashed of { jc_corr : string; jc_attempt : int; jc_reason : string }
  | J_retried of { jr_corr : string; jr_attempt : int; jr_backoff : float }
  | J_completed of { jd_corr : string; jd_artifact : string }
  | J_failed of { jf_corr : string; jf_code : string; jf_message : string }
  | J_rejected of { jx_corr : string; jx_label : string }

let entry_json = function
  | J_submitted s ->
    Json.Obj
      [
        ("ev", Json.String "submitted");
        ("corr", Json.String s.js_corr);
        ("key", Json.String s.js_key);
        ("label", Json.String s.js_label);
        ("artifact", Json.String s.js_artifact);
        ("dedup", Json.Bool s.js_dedup);
        ("request", s.js_request);
      ]
  | J_started s ->
    Json.Obj
      [
        ("ev", Json.String "started");
        ("corr", Json.String s.jt_corr);
        ("attempt", Json.Int s.jt_attempt);
      ]
  | J_crashed c ->
    Json.Obj
      [
        ("ev", Json.String "crashed");
        ("corr", Json.String c.jc_corr);
        ("attempt", Json.Int c.jc_attempt);
        ("reason", Json.String c.jc_reason);
      ]
  | J_retried r ->
    Json.Obj
      [
        ("ev", Json.String "retried");
        ("corr", Json.String r.jr_corr);
        ("attempt", Json.Int r.jr_attempt);
        ("backoff", Json.Float r.jr_backoff);
      ]
  | J_completed d ->
    Json.Obj
      [
        ("ev", Json.String "completed");
        ("corr", Json.String d.jd_corr);
        ("artifact", Json.String d.jd_artifact);
      ]
  | J_failed f ->
    Json.Obj
      [
        ("ev", Json.String "failed");
        ("corr", Json.String f.jf_corr);
        ("code", Json.String f.jf_code);
        ("message", Json.String f.jf_message);
      ]
  | J_rejected x ->
    Json.Obj
      [
        ("ev", Json.String "rejected");
        ("corr", Json.String x.jx_corr);
        ("label", Json.String x.jx_label);
      ]

let entry_of_json j =
  let open Ocapi_batch.Field in
  let str name = req name string j and int_ name = req name int j in
  let* ev = str "ev" in
  match ev with
  | "submitted" ->
    let* js_corr = str "corr" in
    let* js_key = str "key" in
    let* js_label = str "label" in
    let* js_artifact = str "artifact" in
    let* js_dedup = req "dedup" bool j in
    let* js_request =
      Option.to_result (Json.member "request" j)
        ~none:{|missing required field "request"|}
    in
    Ok (J_submitted { js_corr; js_key; js_label; js_artifact; js_request; js_dedup })
  | "started" ->
    let* jt_corr = str "corr" in
    let* jt_attempt = int_ "attempt" in
    Ok (J_started { jt_corr; jt_attempt })
  | "crashed" ->
    let* jc_corr = str "corr" in
    let* jc_attempt = int_ "attempt" in
    let* jc_reason = str "reason" in
    Ok (J_crashed { jc_corr; jc_attempt; jc_reason })
  | "retried" ->
    let* jr_corr = str "corr" in
    let* jr_attempt = int_ "attempt" in
    let* jr_backoff = req "backoff" number j in
    Ok (J_retried { jr_corr; jr_attempt; jr_backoff })
  | "completed" ->
    let* jd_corr = str "corr" in
    let* jd_artifact = str "artifact" in
    Ok (J_completed { jd_corr; jd_artifact })
  | "failed" ->
    let* jf_corr = str "corr" in
    let* jf_code = str "code" in
    let* jf_message = str "message" in
    Ok (J_failed { jf_corr; jf_code; jf_message })
  | "rejected" ->
    let* jx_corr = str "corr" in
    let* jx_label = str "label" in
    Ok (J_rejected { jx_corr; jx_label })
  | other -> Error ("unknown event: " ^ other)

(* --- the journal file ----------------------------------------------------- *)

(* One appended, flushed line per entry: the write-ahead discipline is
   only as good as the journal's durability ordering. *)
let journal_append path e =
  match Ocapi_obs.File.append_line path (Json.to_string (entry_json e)) with
  | Ok () -> ()
  | Error msg ->
    Ocapi_error.fail Internal ~engine:"service" "cannot append to the journal: %s"
      msg

let unknown_event msg =
  String.length msg >= 13 && String.sub msg 0 13 = "unknown event"

let journal_load path =
  if not (Sys.file_exists path) then Ok []
  else
    let rec entries acc = function
      | [] -> Ok (List.rev acc)
      | (n, line) :: rest -> (
        match Result.bind line entry_of_json with
        | Ok e -> entries (e :: acc) rest
        (* A torn final line is the crash we are designed for; a torn
           interior line is corruption worth reporting. *)
        | Error _ when rest = [] -> Ok (List.rev acc)
        | Error msg when unknown_event msg -> entries acc rest
        | Error msg -> Error (Printf.sprintf "journal line %d: %s" n msg))
    in
    Result.bind (Ocapi_obs.File.read_jsonl path) (entries [])

(* --- replay --------------------------------------------------------------- *)

type pending = {
  p_corr : string;
  p_key : string;
  p_label : string;
  p_artifact : string;
  p_request : Json.t;
  p_attempts : int;
}

type recovered = {
  rv_completed : (string * string) list;
  rv_failed : (string * string) list;
  rv_pending : pending list;
}

type jstate = S_queued of int | S_completed of string | S_failed of string

let replay entries =
  let info = Hashtbl.create 32 in
  let state = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun e ->
      match e with
      | J_submitted s when not s.js_dedup ->
        Hashtbl.replace info s.js_corr
          (s.js_key, s.js_label, s.js_artifact, s.js_request);
        (match Hashtbl.find_opt state s.js_corr with
        | Some (S_queued _) -> ()
        | _ ->
          (* A fresh submission — or a resubmission of work whose last
             run ended terminally (failed keys stay resubmittable). *)
          Hashtbl.replace state s.js_corr (S_queued 0);
          if not (List.mem s.js_corr !order) then order := s.js_corr :: !order)
      | J_crashed c -> (
        match Hashtbl.find_opt state c.jc_corr with
        | Some (S_queued _) -> Hashtbl.replace state c.jc_corr (S_queued c.jc_attempt)
        | _ -> ())
      | J_completed d -> Hashtbl.replace state d.jd_corr (S_completed d.jd_artifact)
      | J_failed f -> Hashtbl.replace state f.jf_corr (S_failed f.jf_code)
      | J_submitted _ | J_started _ | J_retried _ | J_rejected _ -> ())
    entries;
  let order = List.rev !order in
  let completed = ref [] and failed = ref [] and pend = ref [] in
  List.iter
    (fun corr ->
      match (Hashtbl.find_opt state corr, Hashtbl.find_opt info corr) with
      | Some (S_completed artifact), Some (key, _, _, _) ->
        completed := (key, artifact) :: !completed
      | Some (S_failed code), Some (key, _, _, _) ->
        failed := (key, code) :: !failed
      | Some (S_queued attempts), Some (key, label, artifact, request) ->
        pend :=
          {
            p_corr = corr;
            p_key = key;
            p_label = label;
            p_artifact = artifact;
            p_request = request;
            p_attempts = attempts;
          }
          :: !pend
      | _ -> ())
    order;
  {
    rv_completed = List.rev !completed;
    rv_failed = List.rev !failed;
    rv_pending = List.rev !pend;
  }

(* --- configuration -------------------------------------------------------- *)

type chaos = { ch_seed : int; ch_kill_prob : float; ch_kill_delay : float }

type worker_kind =
  | Domains
  | Processes of { cmd : string list; state_dir : string }

type config = {
  cf_workers : int;
  cf_worker_kind : worker_kind;
  cf_artifact_dir : string;
  cf_retries : int;
  cf_backoff_base : float;
  cf_backoff_cap : float;
  cf_backoff_seed : int;
  cf_job_timeout : float option;
  cf_kill_grace : float;
  cf_heartbeat_timeout : float;
  cf_max_queue : int;
  cf_cache_dir : string option;
  cf_chaos : chaos option;
  cf_die_after : int option;
  cf_on_line : (string -> unit) option;
}

let default_config =
  {
    cf_workers = 2;
    cf_worker_kind =
      Processes
        {
          cmd = [ Sys.executable_name; "worker" ];
          state_dir = Filename.concat "_generated" "service";
        };
    cf_artifact_dir = Filename.concat (Filename.concat "_generated" "service") "artifacts";
    cf_retries = 3;
    cf_backoff_base = 0.5;
    cf_backoff_cap = 30.;
    cf_backoff_seed = 1;
    cf_job_timeout = None;
    cf_kill_grace = 5.;
    cf_heartbeat_timeout = 30.;
    cf_max_queue = 1024;
    cf_cache_dir = None;
    cf_chaos = None;
    cf_die_after = None;
    cf_on_line = None;
  }

type summary = {
  sm_submitted : int;
  sm_deduped : int;
  sm_recovered : int;
  sm_completed : int;
  sm_failed : int;
  sm_poisoned : int;
  sm_rejected : int;
  sm_crashes : int;
  sm_retries : int;
  sm_chaos_kills : int;
  sm_drained : bool;
  sm_aborted : bool;
  sm_seconds : float;
}

(* --- the worker body, shared by both worker kinds ------------------------- *)

let exit_failed = 20

let error_of_exn = function
  | Ocapi_error.Error e -> e
  | exn -> Ocapi_error.make Internal ~engine:"service" (Printexc.to_string exn)

let fail_line (err : Ocapi_error.t) =
  "fail "
  ^ Json.to_string
      (Json.Obj
         [
           ("code", Json.String (Ocapi_error.code_label err.e_code));
           ("message", Json.String err.e_message);
         ])

(* Remove the [<path>.*.tmp] siblings of an artifact: the temp files
   ({!Ocapi_obs.File.publish}) of workers killed before their rename. *)
let remove_stale_temps path =
  let dir = Filename.dirname path and prefix = Filename.basename path ^ "." in
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | files ->
    Array.iter
      (fun f ->
        if String.starts_with ~prefix f && Filename.check_suffix f ".tmp" then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      files

(* Atomic publication: the artifact appears all-or-nothing, so a kill
   between write and rename leaves no torn file and the supervisor
   treats an existing artifact as proof of completion.  A failed write
   fails the job. *)
let write_artifact path data =
  match Ocapi_obs.File.publish path data with
  | Ok () -> ()
  | Error msg ->
    Ocapi_error.fail Internal ~engine:"service" "cannot write artifact %s" msg

(* Run a prepared job under the cooperative stop hook (a deadline, and
   [stop] for an aborting supervisor), publish its report, then [emit]
   one [done] or [fail {...}] line — [done] only after the rename.
   Returns whether the job completed. *)
let run_job ~emit ~deadline ~stop ~artifact run =
  let progress () =
    if Atomic.get stop then
      Ocapi_error.fail Cancelled ~engine:"service"
        "job cancelled: the runner is aborting";
    match deadline with
    | Some d when Unix.gettimeofday () > d ->
      Ocapi_error.fail Timeout ~engine:"service"
        "job exceeded its wall-clock budget"
    | _ -> ()
  in
  match write_artifact artifact (Json.to_string (run ~progress) ^ "\n") with
  | () ->
    emit "done";
    true
  | exception e ->
    emit (fail_line (error_of_exn e));
    false

let chaos_of raw =
  match Json.member "chaos" raw with Some (Json.String c) -> Some c | _ -> None

(* Validate and prepare one raw manifest object: the one admission check
   every job passes, whichever worker runs it. *)
let prepare_raw raw =
  let* req =
    Result.map_error
      (Ocapi_error.make Unsupported ~engine:"service")
      (Ocapi_batch.request_of_json raw)
  in
  match Ocapi_batch.prepare_request req with
  | prep -> Ok (req, prep)
  | exception e -> Error (error_of_exn e)

(* --- the worker process --------------------------------------------------- *)

(* The worker's stdout is the supervision channel; the heartbeat thread
   and the main thread both write lines, so serialize them.  Each line
   is one unbuffered write, so a line that fails leaves nothing for a
   later flush. *)
let out_mutex = Mutex.create ()

let out_line s =
  let line = s ^ "\n" in
  Mutex.protect out_mutex (fun () ->
      ignore (Unix.write_substring Unix.stdout line 0 (String.length line)))

let worker_main ?timeout ?(heartbeat_every = 1.0) ?cache_dir ~request ~artifact
    () =
  (* Once the supervisor is gone a line raises [EPIPE] instead of
     SIGPIPE killing the worker at any point, such as between its temp
     artifact and the rename. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let failed err =
    out_line (fail_line err);
    exit_failed
  in
  match Json.of_string request with
  | Error e ->
    failed
      (Ocapi_error.make Unsupported ~engine:"service" ("malformed --request: " ^ e))
  | Ok raw when chaos_of raw = Some "hang" ->
    (* A silently wedged worker: no heartbeats, no exit.  Exercises the
       supervisor's heartbeat-timeout kill(9) backstop. *)
    let rec hang () =
      Unix.sleepf 3600.;
      hang ()
    in
    hang ()
  | Ok raw -> (
    Option.iter (fun dir -> Flow.Cache.enable ~dir ()) cache_dir;
    match prepare_raw raw with
    | Error err -> failed err
    | Ok (req, prep) ->
      if chaos_of raw = Some "crash" then
        (* Self-destruct after the job is prepared: the supervisor sees a
           SIGKILLed worker, never a written artifact. *)
        Unix.kill (Unix.getpid ()) Sys.sigkill;
      (* The heartbeat thread sleeps in [select] on a wake-up pipe, so
         the body returns as soon as its last line is written instead of
         waiting out the heartbeat period. *)
      let wake_r, wake_w = Unix.pipe ~cloexec:true () in
      let rec beat () =
        match out_line "hb" with
        | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ()
        | () -> (
          match Unix.select [ wake_r ] [] [] heartbeat_every with
          | [], _, _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) -> beat ()
          | _ -> ())
      in
      let hb = Thread.create beat () in
      let deadline =
        match (req.rq_timeout, timeout) with
        | Some t, _ | None, Some t -> Some (Unix.gettimeofday () +. t)
        | None, None -> None
      in
      (* Publish only while the supervisor lives: the heartbeat line
         just before fails once it is gone, and the restarted
         supervisor relaunches the job instead. *)
      let run ~progress =
        let report = prep.pr_run ~progress in
        out_line "hb";
        report
      in
      let ok =
        try
          run_job ~emit:out_line ~deadline ~stop:(Atomic.make false) ~artifact
            run
        with Unix.Unix_error (Unix.EPIPE, _, _) -> false
      in
      ignore (Unix.write_substring wake_w "x" 0 1);
      Thread.join hb;
      Unix.close wake_r;
      Unix.close wake_w;
      if ok then 0 else exit_failed)

(* --- the supervisor ------------------------------------------------------- *)

type qjob = {
  q_corr : string;
  q_key : string;
  q_label : string;
  q_artifact : string;
  q_request : Json.t;
  q_prepared : Ocapi_batch.prepared option;
      (* domain workers: the job prepared at admission *)
  q_prio : int;
  q_timeout : float option;
  q_seq : int;
  mutable q_crashes : int;
  mutable q_ready_at : float;
  mutable q_enqueued : float;
}

type worker = Pid of int | Dom of Ocapi_obs.domain_export option Domain.t

type slot = {
  s_worker : worker;
  s_fd : Unix.file_descr;
  s_job : qjob;
  s_attempt : int;
  s_launched : float;
  s_deadline : float option;  (* process workers' kill(9) backstop *)
  s_chaos_at : float option;
  s_buf : Buffer.t;
  mutable s_last_hb : float;
  mutable s_done : bool;
  mutable s_fail : (string * string) option;
  mutable s_killed : string option;
  mutable s_eof : bool;
}

(* OCaml signal numbers are its own negative encoding; name the ones a
   worker plausibly dies of. *)
let signal_name s =
  if s = Sys.sigkill then "sigkill"
  else if s = Sys.sigterm then "sigterm"
  else if s = Sys.sigint then "sigint"
  else if s = Sys.sigsegv then "sigsegv"
  else if s = Sys.sigabrt then "sigabrt"
  else if s = Sys.sigbus then "sigbus"
  else if s = Sys.sigfpe then "sigfpe"
  else string_of_int s

let status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %s" (signal_name s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %s" (signal_name s)

let parse_fail_line line =
  let payload = String.sub line 5 (String.length line - 5) in
  match Json.of_string payload with
  | Ok j ->
    let get name fallback =
      match Json.member name j with Some (Json.String s) -> s | _ -> fallback
    in
    (get "code" "internal", get "message" "")
  | Error _ -> ("internal", "malformed failure report: " ^ payload)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let rank = function Ocapi_batch.High -> 0 | Normal -> 1 | Low -> 2

(* Queue waits span microseconds (idle worker) to seconds (saturated
   campaign); the default power-of-two telemetry buckets lump everything
   above a millisecond into a handful of cells, which wrecks the
   interpolated p50/p95. *)
let queue_wait_buckets =
  [|
    1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1e3; 2e3; 5e3; 1e4; 2e4; 5e4;
    1e5; 2e5; 5e5; 1e6; 2e6; 5e6; 1e7; 2e7; 5e7; 1e8;
  |]

(* A domain worker's report line, written whole to its pipe. *)
let write_line fd s =
  let line = s ^ "\n" in
  let rec go off =
    if off < String.length line then
      match Unix.write_substring fd line off (String.length line - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let serve cf ~requests =
  if cf.cf_workers < 1 then invalid_arg "Ocapi_service.serve: workers < 1";
  if cf.cf_retries < 1 then invalid_arg "Ocapi_service.serve: retries < 1";
  if cf.cf_max_queue < 1 then invalid_arg "Ocapi_service.serve: max_queue < 1";
  (match Ocapi_obs.File.mkdir_p cf.cf_artifact_dir with
  | Ok () -> ()
  | Error msg ->
    Ocapi_error.fail Internal ~engine:"service" "cannot create artifacts: %s" msg);
  (match (cf.cf_worker_kind, cf.cf_cache_dir) with
  | Domains, Some dir -> Flow.Cache.enable ~dir ()
  | _ -> ());
  let t0 = Unix.gettimeofday () in
  let say fmt =
    Printf.ksprintf
      (fun s -> match cf.cf_on_line with Some f -> f s | None -> ())
      fmt
  in
  let recovered_state, jr =
    match cf.cf_worker_kind with
    | Domains -> (replay [], None)
    | Processes { state_dir; _ } -> (
      let path = Filename.concat state_dir "journal.jsonl" in
      match journal_load path with
      | Ok entries -> (replay entries, Some path)
      | Error msg ->
        Ocapi_error.fail Internal ~engine:"service" "unreadable journal: %s" msg)
  in
  let log e = Option.iter (fun jr -> journal_append jr e) jr in
  let artifact_path file = Filename.concat cf.cf_artifact_dir file in
  (* The completed store doubles as the dedup source across restarts —
     but only entries whose artifact survived on disk count; a deleted
     artifact means the work must be redone. *)
  let completed_tbl = Hashtbl.create 64 in
  List.iter
    (fun (key, artifact) ->
      if Sys.file_exists (artifact_path artifact) then
        Hashtbl.replace completed_tbl key artifact)
    recovered_state.rv_completed;
  let active_keys = Hashtbl.create 64 in
  let pending = ref [] in
  let seq = ref 0 in
  let sm_submitted = ref 0
  and sm_deduped = ref 0
  and sm_completed = ref 0
  and sm_failed = ref 0
  and sm_poisoned = ref 0
  and sm_rejected = ref 0
  and sm_crashes = ref 0
  and sm_retries = ref 0
  and sm_chaos_kills = ref 0 in
  let event ~corr ~label kind fields =
    Ocapi_obs.Events.emit ~corr ~fields:(("label", Json.String label) :: fields) kind
  in
  let requeue job =
    job.q_enqueued <- Unix.gettimeofday ();
    pending := !pending @ [ job ]
  in
  let enqueue ~corr ~key ~label ~artifact ~request ~prepared ~prio ~timeout
      ~crashes =
    incr seq;
    Hashtbl.replace active_keys key ();
    requeue
      {
        q_corr = corr;
        q_key = key;
        q_label = label;
        q_artifact = artifact;
        q_request = request;
        q_prepared = prepared;
        q_prio = prio;
        q_timeout = timeout;
        q_seq = !seq;
        q_crashes = crashes;
        q_ready_at = 0.;
        q_enqueued = 0.;
      }
  in
  let fail_job ~corr ~label ~code message =
    log (J_failed { jf_corr = corr; jf_code = code; jf_message = message });
    incr sm_failed;
    Ocapi_obs.count "service.job.failed";
    event ~corr ~label "job_failed" [ ("code", Json.String code) ];
    say "failed [%s] %s: %s: %s" corr label code message
  in
  (* Requeue journaled jobs that never reached a terminal state: a
     restarted supervisor resumes exactly where the dead one stopped.
     A server killed between a worker's kill and its reap left that
     worker's temp artifact behind, so each relaunched job's temps go
     first. *)
  List.iter
    (fun p ->
      remove_stale_temps (artifact_path p.p_artifact);
      let prio, timeout =
        match Ocapi_batch.request_of_json p.p_request with
        | Ok r -> (rank r.rq_priority, r.rq_timeout)
        | Error _ -> (rank Normal, None)
      in
      enqueue ~corr:p.p_corr ~key:p.p_key ~label:p.p_label ~artifact:p.p_artifact
        ~request:p.p_request ~prepared:None ~prio ~timeout ~crashes:p.p_attempts)
    recovered_state.rv_pending;
  let sm_recovered = List.length recovered_state.rv_pending in
  if sm_recovered > 0 then say "recovered %d pending job(s) from the journal" sm_recovered;
  (* Admission: validate and prepare, then journal, then enqueue —
     write-ahead.  An invalid or unrunnable line fails alone. *)
  let admit raw =
    incr sm_submitted;
    Ocapi_obs.count "service.job.submitted";
    let chaos = chaos_of raw in
    let validated =
      if chaos <> None && cf.cf_worker_kind = Domains then
        Error
          (Ocapi_error.make Unsupported ~engine:"service"
             "chaos failpoints need process workers (ocapi serve)")
      else prepare_raw raw
    in
    match validated with
    | Error err ->
      let label =
        match Json.member "label" raw with
        | Some (Json.String l) -> l
        | _ -> Json.to_string raw
      in
      fail_job
        ~corr:(Ocapi_batch.corr_of_key ("raw|" ^ Json.to_string raw))
        ~label ~code:(Ocapi_error.code_label err.e_code) err.e_message
    | Ok (req, prep) ->
      (* A "chaos"-marked request is a different job from its plain
         twin: fold the marker into the key so they never dedup into
         each other. *)
      let key, corr, artifact =
        match chaos with
        | Some c ->
          let key = prep.pr_key ^ "|chaos=" ^ c in
          (key, Ocapi_batch.corr_of_key key, "chaos-" ^ prep.pr_artifact_file)
        | None -> (prep.pr_key, prep.pr_corr, prep.pr_artifact_file)
      in
      let label = prep.pr_label in
      let submitted dedup =
        log
          (J_submitted
             {
               js_corr = corr;
               js_key = key;
               js_label = label;
               js_artifact = artifact;
               js_request = raw;
               js_dedup = dedup;
             })
      in
      let deduped what =
        submitted true;
        incr sm_deduped;
        Ocapi_obs.count "service.job.deduped";
        event ~corr ~label "job_deduped" [];
        say "dedup [%s] %s (%s)" corr label what
      in
      if
        match Hashtbl.find_opt completed_tbl key with
        | Some file -> Sys.file_exists (artifact_path file)
        | None -> false
      then deduped "completed"
      else if Hashtbl.mem active_keys key then deduped "queued"
      else if List.length !pending >= cf.cf_max_queue then begin
        log (J_rejected { jx_corr = corr; jx_label = label });
        incr sm_rejected;
        Ocapi_obs.count "service.job.rejected";
        event ~corr ~label "job_rejected"
          [ ("reason", Json.String (Ocapi_error.code_label Overloaded)) ];
        say "rejected [%s] %s (overloaded)" corr label
      end
      else begin
        submitted false;
        enqueue ~corr ~key ~label ~artifact ~request:raw
          ~prepared:(if cf.cf_worker_kind = Domains then Some prep else None)
          ~prio:(rank req.rq_priority) ~timeout:req.rq_timeout ~crashes:0;
        event ~corr ~label "job_submitted" [];
        say "queued [%s] %s" corr label
      end
  in
  List.iter admit requests;
  (* Supervision proper. *)
  let drain = Atomic.make false and abort = Atomic.make false in
  let on_signal _ =
    (* Handlers may run on any domain: only flip atomics here. *)
    if Atomic.get drain then Atomic.set abort true else Atomic.set drain true
  in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  let slots : slot option array = Array.make cf.cf_workers None in
  let chaos_rng =
    Option.map (fun c -> Random.State.make [| c.ch_seed |]) cf.cf_chaos
  in
  let completed_count = ref 0 in
  let take_ready now =
    let best = ref None in
    List.iter
      (fun j ->
        if j.q_ready_at <= now then
          match !best with
          | Some b when (b.q_prio, b.q_seq) <= (j.q_prio, j.q_seq) -> ()
          | _ -> best := Some j)
      !pending;
    Option.iter (fun j -> pending := List.filter (fun x -> x != j) !pending) !best;
    !best
  in
  let launch job =
    let attempt = job.q_crashes + 1 in
    log (J_started { jt_corr = job.q_corr; jt_attempt = attempt });
    event ~corr:job.q_corr ~label:job.q_label "job_started"
      [ ("attempt", Json.Int attempt) ];
    let now = Unix.gettimeofday () in
    Ocapi_obs.observe ~buckets:queue_wait_buckets "service.queue.wait_us"
      ((now -. job.q_enqueued) *. 1e6);
    let artifact = artifact_path job.q_artifact in
    let timeout =
      match job.q_timeout with Some t -> Some t | None -> cf.cf_job_timeout
    in
    let r, w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock r;
    let worker, deadline, chaos_at =
      match cf.cf_worker_kind with
      | Domains ->
        (* Without a journal nothing is recovered: every domain job was
           prepared at admission. *)
        let run = (Option.get job.q_prepared).pr_run in
        let deadline = Option.map (fun t -> now +. t) timeout in
        let body () =
          Fun.protect
            ~finally:(fun () -> Unix.close w)
            (fun () ->
              ignore
                (run_job ~emit:(write_line w) ~deadline ~stop:abort ~artifact run));
          if Ocapi_obs.enabled () then Some (Ocapi_obs.export_domain ()) else None
        in
        (Dom (Domain.spawn body), None, None)
      | Processes { cmd; _ } ->
        let argv =
          cmd
          @ [ "--request"; Json.to_string job.q_request; "--artifact"; artifact ]
          @ (match cf.cf_job_timeout with
            | Some t -> [ "--timeout"; Printf.sprintf "%g" t ]
            | None -> [])
          @
          match cf.cf_cache_dir with
          | Some d -> [ "--cache-dir"; d ]
          | None -> []
        in
        let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
        let pid =
          Unix.create_process (List.hd cmd) (Array.of_list argv) devnull w
            Unix.stderr
        in
        Unix.close w;
        Unix.close devnull;
        let chaos_at =
          match (chaos_rng, cf.cf_chaos) with
          | Some rng, Some c when attempt = 1 ->
            (* Chaos kills target first attempts only: a retried job is
               left alone, so every chaos run still converges. *)
            if Random.State.float rng 1.0 < c.ch_kill_prob then
              Some (now +. Random.State.float rng c.ch_kill_delay)
            else None
          | _ -> None
        in
        ( Pid pid,
          Option.map (fun t -> now +. t +. cf.cf_kill_grace) timeout,
          chaos_at )
    in
    say "start [%s] %s (attempt %d/%d)" job.q_corr job.q_label attempt cf.cf_retries;
    {
      s_worker = worker;
      s_fd = r;
      s_job = job;
      s_attempt = attempt;
      s_launched = now;
      s_deadline = deadline;
      s_chaos_at = chaos_at;
      s_buf = Buffer.create 64;
      s_last_hb = now;
      s_done = false;
      s_fail = None;
      s_killed = None;
      s_eof = false;
    }
  in
  let handle_line sl line =
    sl.s_last_hb <- Unix.gettimeofday ();
    if line = "hb" then ()
    else if line = "done" then sl.s_done <- true
    else if starts_with "fail " line then sl.s_fail <- Some (parse_fail_line line)
  in
  let read_slot sl =
    let bytes = Bytes.create 4096 in
    let rec fill () =
      match Unix.read sl.s_fd bytes 0 4096 with
      | 0 -> sl.s_eof <- true
      | n ->
        Buffer.add_subbytes sl.s_buf bytes 0 n;
        fill ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill ()
    in
    fill ();
    let rec consume = function
      | [] -> ()
      | [ tail ] ->
        Buffer.clear sl.s_buf;
        Buffer.add_string sl.s_buf tail
      | line :: rest ->
        handle_line sl line;
        consume rest
    in
    consume (String.split_on_char '\n' (Buffer.contents sl.s_buf))
  in
  let kill_slot sl pid reason =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    sl.s_killed <- Some reason
  in
  (* A domain worker has exited once its pipe reached end of file; its
     report lines stand in for a process's exit status. *)
  let join_domain d =
    Option.iter Ocapi_obs.absorb_domain (Domain.join d)
  in
  let reap sl =
    match sl.s_worker with
    | Pid pid -> (
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> None
      | _, status -> Some status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 255))
    | Dom d when sl.s_eof -> (
      match join_domain d with
      | () -> Some (Unix.WEXITED (if sl.s_done then 0 else exit_failed))
      | exception _ -> Some (Unix.WEXITED 255))
    | Dom _ -> None
  in
  let classify sl status =
    let job = sl.s_job in
    (* "done" is printed only after the atomic rename, so the pair
       (done seen, artifact exists) is proof of completion even when
       our own chaos kill raced the worker's exit. *)
    if sl.s_done && Sys.file_exists (artifact_path job.q_artifact) then begin
      log (J_completed { jd_corr = job.q_corr; jd_artifact = job.q_artifact });
      Hashtbl.replace completed_tbl job.q_key job.q_artifact;
      Hashtbl.remove active_keys job.q_key;
      incr sm_completed;
      Ocapi_obs.count "service.job.completed";
      event ~corr:job.q_corr ~label:job.q_label "job_completed" [];
      say "done [%s] %s -> %s (%.2fs)" job.q_corr job.q_label job.q_artifact
        (Unix.gettimeofday () -. sl.s_launched);
      incr completed_count;
      match cf.cf_die_after with
      | Some n when !completed_count >= n ->
        (* The crash-testing failpoint: die the way a real crash does —
           no cleanup, no drain — and let the journal prove itself. *)
        Unix.kill (Unix.getpid ()) Sys.sigkill
      | _ -> ()
    end
    else begin
      match (status, sl.s_fail, sl.s_killed) with
      | Unix.WEXITED c, Some (code, message), None when c = exit_failed ->
        (* A structured failure is the job's verdict, not the worker's:
           terminal, no retry. *)
        Hashtbl.remove active_keys job.q_key;
        fail_job ~corr:job.q_corr ~label:job.q_label ~code message
      | status, _, killed ->
        let reason =
          match killed with Some r -> r | None -> status_string status
        in
        (* A chaos kill that raced a finished worker lands in the
           completed branch above; only a kill that actually cost an
           attempt counts here. *)
        if reason = "chaos" then begin
          incr sm_chaos_kills;
          Ocapi_obs.count "service.chaos.kills"
        end;
        (* A worker process killed between writing and renaming its
           artifact leaves the temp file. *)
        (match sl.s_worker with
        | Pid _ -> remove_stale_temps (artifact_path job.q_artifact)
        | Dom _ -> ());
        incr sm_crashes;
        Ocapi_obs.count "service.worker.crashed";
        log
          (J_crashed
             { jc_corr = job.q_corr; jc_attempt = sl.s_attempt; jc_reason = reason });
        event ~corr:job.q_corr ~label:job.q_label "worker_crashed"
          [ ("attempt", Json.Int sl.s_attempt); ("reason", Json.String reason) ];
        say "crash [%s] %s (attempt %d: %s)" job.q_corr job.q_label sl.s_attempt
          reason;
        job.q_crashes <- sl.s_attempt;
        if sl.s_attempt >= cf.cf_retries then begin
          (* Poisoned: this job has killed every worker sent at it. *)
          Hashtbl.remove active_keys job.q_key;
          incr sm_poisoned;
          Ocapi_obs.count "service.job.poisoned";
          fail_job ~corr:job.q_corr ~label:job.q_label
            ~code:(Ocapi_error.code_label Retries_exhausted)
            (Printf.sprintf "poisoned after %d crashed attempts (last: %s)"
               sl.s_attempt reason)
        end
        else begin
          let backoff =
            backoff_delay ~base:cf.cf_backoff_base ~cap:cf.cf_backoff_cap
              ~seed:cf.cf_backoff_seed ~corr:job.q_corr ~attempt:sl.s_attempt
          in
          log
            (J_retried
               {
                 jr_corr = job.q_corr;
                 jr_attempt = sl.s_attempt + 1;
                 jr_backoff = backoff;
               });
          incr sm_retries;
          Ocapi_obs.count "service.job.retried";
          event ~corr:job.q_corr ~label:job.q_label "job_retried"
            [
              ("attempt", Json.Int (sl.s_attempt + 1));
              ("backoff", Json.Float backoff);
            ];
          say "retry [%s] %s in %.2fs (attempt %d/%d)" job.q_corr job.q_label
            backoff (sl.s_attempt + 1) cf.cf_retries;
          job.q_ready_at <- Unix.gettimeofday () +. backoff;
          requeue job
        end
    end
  in
  let running () = Array.exists Option.is_some slots in
  let tick = 0.05 in
  let finished = ref false in
  let drained = ref false and aborted = ref false in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int)
    (fun () ->
      while not !finished do
        (* 1. Fill free slots with ready work (unless draining). *)
        if not (Atomic.get drain) then begin
          let now = Unix.gettimeofday () in
          Array.iteri
            (fun i s ->
              if s = None then
                Option.iter
                  (fun job -> slots.(i) <- Some (launch job))
                  (take_ready now))
            slots
        end;
        (* 2. Wait for worker output (or just pass time). *)
        let fds =
          Array.to_list slots
          |> List.filter_map (function
               | Some sl when not sl.s_eof -> Some sl.s_fd
               | _ -> None)
        in
        let readable =
          if Atomic.get abort then []
          else if fds = [] then begin
            (try Unix.sleepf tick
             with Unix.Unix_error (Unix.EINTR, _, _) -> ());
            []
          end
          else begin
            match Unix.select fds [] [] tick with
            | r, _, _ -> r
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
          end
        in
        Array.iter
          (function
            | Some sl when List.memq sl.s_fd readable -> read_slot sl
            | _ -> ())
          slots;
        (* 3. Kill policies for process workers: chaos schedule,
           deadline backstop, silent (heartbeat-less) workers. *)
        let now = Unix.gettimeofday () in
        Array.iter
          (function
            | Some ({ s_worker = Pid pid; s_killed = None; _ } as sl) ->
              (match sl.s_chaos_at with
              | Some t when now >= t -> kill_slot sl pid "chaos"
              | _ -> ());
              if sl.s_killed = None then begin
                match sl.s_deadline with
                | Some d when now >= d -> kill_slot sl pid "deadline"
                | _ -> ()
              end;
              if sl.s_killed = None && now -. sl.s_last_hb > cf.cf_heartbeat_timeout
              then kill_slot sl pid "heartbeat"
            | _ -> ())
          slots;
        (* 4. Reap and classify exits. *)
        Array.iteri
          (fun i osl ->
            match osl with
            | None -> ()
            | Some sl ->
              Option.iter
                (fun status ->
                  read_slot sl;
                  Unix.close sl.s_fd;
                  slots.(i) <- None;
                  classify sl status)
                (reap sl))
          slots;
        (* 5. Shutdown decisions.  An abort SIGKILLs process workers;
           domain workers see [abort] at their next progress check. *)
        if Atomic.get abort then begin
          let left =
            List.length !pending
            + Array.fold_left (fun n s -> if s = None then n else n + 1) 0 slots
          in
          Array.iteri
            (fun i osl ->
              match osl with
              | None -> ()
              | Some sl ->
                (match sl.s_worker with
                | Pid pid -> (
                  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
                | Dom d -> ( try join_domain d with _ -> ()));
                Unix.close sl.s_fd;
                slots.(i) <- None)
            slots;
          aborted := true;
          finished := true;
          say "aborted: %d job(s) left unfinished" left
        end
        else if not (running ()) then begin
          if Atomic.get drain then begin
            drained := !pending <> [];
            finished := true;
            if !drained then
              say "drained: %d job(s) left unfinished" (List.length !pending)
          end
          else if !pending = [] then finished := true
        end
      done);
  {
    sm_submitted = !sm_submitted;
    sm_deduped = !sm_deduped;
    sm_recovered;
    sm_completed = !sm_completed;
    sm_failed = !sm_failed;
    sm_poisoned = !sm_poisoned;
    sm_rejected = !sm_rejected;
    sm_crashes = !sm_crashes;
    sm_retries = !sm_retries;
    sm_chaos_kills = !sm_chaos_kills;
    sm_drained = !drained;
    sm_aborted = !aborted;
    sm_seconds = Unix.gettimeofday () -. t0;
  }
