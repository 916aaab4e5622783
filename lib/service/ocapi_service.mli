(** The job runner: one admission path, one queue, one supervising loop
    and two kinds of worker.  [ocapi batch] and [ocapi serve] are this
    module with different {!config}s.

    - {b Admission} is shared.  Each raw manifest object goes through
      {!Ocapi_batch.request_of_json}, which validates every field, and
      {!Ocapi_batch.prepare_request}, which resolves the design and
      engine and fingerprints the job through {!Flow.Cache.key_of}.  A
      line that fails either step is a structured failure of that line
      alone; the rest of the manifest runs.  Identical keys dedup
      against queued work and, with a journal, against completed work.
      The queue orders by priority class, FIFO inside a class, and is
      bounded: submissions beyond {!config.cf_max_queue} are rejected
      with code [Overloaded].
    - {b The worker body} is shared.  Both kinds run the job with a
      cooperative stop hook (timeout, abort), write the canonical
      artifact atomically (temp name unique per process and domain,
      then rename) and report one [done] or [fail {...}] line on a
      pipe.  A failed artifact write fails the job.  A job's
      {!Ocapi_error.Error} is its failure; any other exception fails
      the job with code [Internal], because every job must end in a
      result.
    - {b Domain workers} ([ocapi batch]) run the job prepared at
      admission on an in-process domain: no fork, no re-build.  A
      domain cannot be killed, so timeouts and aborts are cooperative
      only, and manifest lines carrying ["chaos"] fail at admission.
    - {b Process workers} ([ocapi serve]) are [ocapi worker]
      subprocesses, one per job attempt, re-preparing the job from its
      raw request.  A worker that crashes, is killed, or stops
      heartbeating takes down only its own job: the supervisor sees the
      death via [waitpid] and the heartbeat pipe and requeues the job
      after {!backoff_delay}, up to {!config.cf_retries} attempts; a job
      that kills every worker sent at it is {e poisoned}: [Failed] with
      code [Retries_exhausted].  A seeded chaos schedule ({!chaos}) and
      per-job [{"chaos": "crash"|"hang"}] fields exercise these paths.
    - {b The journal} (process workers only): every submission and
      transition is appended to [state_dir/journal.jsonl] {e before} it
      takes effect, and {!replay} rebuilds the completed-job dedup store
      and the pending set on restart, so a killed supervisor loses no
      queue state and finished work is never re-executed.
    - {b Signals}: SIGTERM/SIGINT drain (finish running jobs, launch
      nothing new); a second signal aborts (process workers are
      SIGKILLed, domain workers are stopped at their next progress
      check).  With process workers both are safe: the journal
      replays.

    Because artifacts are canonical bytes written atomically by the
    worker that finishes the job, the artifact tree of a manifest is
    the same under either worker kind, any worker count, and a chaos
    run with a supervisor kill and restart —
    [scripts/determinism_gate.sh] and [scripts/crash_recovery_gate.sh]
    check this in CI. *)

(** {1 Retry backoff} *)

(** [backoff_delay ~base ~cap ~seed ~corr ~attempt] is the requeue
    delay in seconds after failed attempt number [attempt] (1-based):
    [base * 2{^attempt-1}], scaled by a jitter factor in [[1.0, 1.5)]
    drawn deterministically from [(seed, corr, attempt)], and clamped
    to [cap].  Deterministic, so a chaos campaign's schedule reproduces
    from its seed; jittered, so a crashed fleet does not retry in
    lockstep.
    @raise Invalid_argument on [base <= 0.], [cap < base] or
    [attempt < 1]. *)
val backoff_delay :
  base:float -> cap:float -> seed:int -> corr:string -> attempt:int -> float

(** {1 The job journal}

    A JSONL write-ahead log: one JSON object per line, appended (and
    flushed) before the transition it records takes effect, so the
    on-disk journal is never behind the server's in-memory state.  A
    line interrupted mid-write by a crash is tolerated by
    {!journal_load} (a truncated {e final} line is dropped).

    Schema, by ["ev"] field:
    {v
{"ev":"submitted","corr":C,"key":K,"label":L,"artifact":F,"dedup":B,"request":{...}}
{"ev":"started","corr":C,"attempt":N}
{"ev":"crashed","corr":C,"attempt":N,"reason":R}
{"ev":"retried","corr":C,"attempt":N,"backoff":S}
{"ev":"completed","corr":C,"artifact":F}
{"ev":"failed","corr":C,"code":E,"message":M}
{"ev":"rejected","corr":C,"label":L}
    v} *)

type entry =
  | J_submitted of {
      js_corr : string;
      js_key : string;  (** full {!Flow.Cache.key_of} dedup key *)
      js_label : string;
      js_artifact : string;  (** artifact file name (not path) *)
      js_request : Ocapi_obs.Json.t;  (** original manifest object *)
      js_dedup : bool;
          (** served by an existing execution; replay skips it *)
    }
  | J_started of { jt_corr : string; jt_attempt : int }
  | J_crashed of { jc_corr : string; jc_attempt : int; jc_reason : string }
  | J_retried of { jr_corr : string; jr_attempt : int; jr_backoff : float }
      (** [jr_attempt] is the {e next} attempt number *)
  | J_completed of { jd_corr : string; jd_artifact : string }
  | J_failed of { jf_corr : string; jf_code : string; jf_message : string }
  | J_rejected of { jx_corr : string; jx_label : string }

val entry_json : entry -> Ocapi_obs.Json.t
val entry_of_json : Ocapi_obs.Json.t -> (entry, string) result

(** [journal_append path e] appends [e] to the journal at [path]
    ({!Ocapi_obs.File.append_line}), creating it if missing; the line
    is written when it returns.  A failed append raises
    [Ocapi_error.Error] ([Internal]). *)
val journal_append : string -> entry -> unit

(** [journal_load path] reads a journal back
    ({!Ocapi_obs.File.read_jsonl}).  A missing file is [Ok []]; blank
    lines and [#] lines are skipped; an unparsable {e final} line is
    dropped (the crash-interrupted append); an unparsable interior line
    is an error, and so is a path that cannot be read. *)
val journal_load : string -> (entry list, string) result

(** {1 Replay} *)

(** A journaled job with no terminal record: it must run (again) after
    a restart.  [p_attempts] counts the {e worker-crash} attempts
    already consumed (journal [crashed] records); a server death
    mid-run consumes no budget — the job was not at fault. *)
type pending = {
  p_corr : string;
  p_key : string;
  p_label : string;
  p_artifact : string;
  p_request : Ocapi_obs.Json.t;
  p_attempts : int;
}

type recovered = {
  rv_completed : (string * string) list;
      (** (dedup key, artifact file) of jobs that finished [Completed];
          resubmissions of these keys dedup instead of re-executing *)
  rv_failed : (string * string) list;
      (** (dedup key, error code) terminal failures; {e not} a dedup
          source — a failed job stays resubmittable *)
  rv_pending : pending list;  (** in original submission order *)
}

(** Fold a journal into the state a restarting server resumes from.
    Pure; the inverse direction (state to journal) is {!serve}'s
    write-ahead discipline. *)
val replay : entry list -> recovered

(** {1 Configuration} *)

(** Seeded chaos injection: when configured, each {e first} attempt of
    a job on a process worker is, with probability [ch_kill_prob],
    scheduled to be SIGKILLed between 0 and [ch_kill_delay] seconds
    after launch.  Retried attempts are never chaos-killed, so every
    job still converges — chaos exercises the recovery machinery, not
    the retry budget. *)
type chaos = { ch_seed : int; ch_kill_prob : float; ch_kill_delay : float }

type worker_kind =
  | Domains  (** run the jobs prepared at admission on in-process domains *)
  | Processes of {
      cmd : string list;
          (** argv prefix of a worker process; the supervisor appends
              [--request JSON --artifact PATH] (and [--timeout],
              [--cache-dir]) *)
      state_dir : string;  (** home of the write-ahead journal *)
    }

type config = {
  cf_workers : int;  (** concurrent workers *)
  cf_worker_kind : worker_kind;
  cf_artifact_dir : string;
  cf_retries : int;  (** attempt budget per job (>= 1) *)
  cf_backoff_base : float;
  cf_backoff_cap : float;
  cf_backoff_seed : int;
  cf_job_timeout : float option;
      (** default cooperative per-job timeout (seconds) from launch,
          applied when a request carries none *)
  cf_kill_grace : float;
      (** process workers: wall-clock slack beyond the cooperative
          timeout before the kill(9) backstop fires *)
  cf_heartbeat_timeout : float;
      (** process workers: kill(9) a worker silent for this long (its
          heartbeat thread prints once a second) *)
  cf_max_queue : int;  (** pending-queue bound; beyond it: [Overloaded] *)
  cf_cache_dir : string option;
      (** when set, jobs run with {!Flow.Cache} enabled on this
          directory *)
  cf_chaos : chaos option;
  cf_die_after : int option;
      (** crash-testing failpoint: SIGKILL {e the supervisor itself}
          after this many journaled completions *)
  cf_on_line : (string -> unit) option;
      (** streaming progress lines, called from the supervising
          domain *)
}

(** The [ocapi serve] defaults: 2 process workers re-invoking the CLI
    ([[Sys.executable_name; "worker"]]), journal in
    [_generated/service], artifacts in [_generated/service/artifacts],
    3 attempts, 0.5 s base / 30 s cap backoff (seed 1), no cooperative
    timeout, 5 s kill grace, 30 s heartbeat timeout, queue bound 1024,
    no cache, no chaos, no failpoint, silent. *)
val default_config : config

(** {1 Running} *)

type summary = {
  sm_submitted : int;  (** manifest submissions (not replayed jobs) *)
  sm_deduped : int;
      (** submissions served by the journal's completed store or by an
          already-queued execution *)
  sm_recovered : int;  (** pending jobs requeued by journal replay *)
  sm_completed : int;
  sm_failed : int;
      (** terminal failures: invalid or unrunnable requests, job
          failures, poisoned jobs *)
  sm_poisoned : int;  (** subset of [sm_failed] with [Retries_exhausted] *)
  sm_rejected : int;  (** [Overloaded] backpressure rejections *)
  sm_crashes : int;  (** worker deaths observed (incl. chaos/backstop) *)
  sm_retries : int;  (** requeues after crashes *)
  sm_chaos_kills : int;
  sm_drained : bool;  (** a signal drained the runner with work left *)
  sm_aborted : bool;  (** a second signal aborted it mid-flight *)
  sm_seconds : float;
}

(** [serve config ~requests] runs until the queue drains (or a signal
    drains/aborts it): replays the journal, admits [requests] (raw
    manifest objects — unknown fields such as ["chaos"] ride along into
    the journal and the worker), supervises up to [cf_workers] workers,
    and returns the summary.  Installs SIGTERM/SIGINT handlers for the
    duration.  Lifecycle events ([job_submitted], [job_deduped],
    [job_rejected], [job_started], [worker_crashed], [job_retried],
    [job_completed], [job_failed]) are emitted into
    {!Ocapi_obs.Events} when that log is enabled, joined on the
    correlation ids of the trace spans.  Telemetry: the
    [service.queue.wait_us] histogram (launch minus enqueue time, on
    {!queue_wait_buckets}) and [service.*] counters; domain workers'
    telemetry is merged into the caller's.
    @raise Invalid_argument on [cf_workers], [cf_retries] or
    [cf_max_queue] below 1. *)
val serve : config -> requests:Ocapi_obs.Json.t list -> summary

(** Histogram buckets of [service.queue.wait_us]: a 1-2-5 decade ladder
    from 1 µs to 10{^8} µs, so interpolated quantiles stay honest from
    an idle worker's microseconds to a saturated campaign's seconds. *)
val queue_wait_buckets : float array

(** {1 The worker process} *)

(** Exit code of a worker that ran its job and produced a {e
    structured} failure (printed as a [fail {...}] line on stdout);
    exit 0 means the artifact was written.  Anything else — a signal, a
    segfault, an OOM kill, a nonzero exit without the [fail] protocol —
    is a worker crash, retried by the supervisor. *)
val exit_failed : int

(** [worker_main ~request ~artifact ()] is the body of [ocapi worker]:
    parse the one-line JSON [request], prepare the job
    ({!Ocapi_batch.prepare_request}), heartbeat on stdout ([hb] lines,
    every [heartbeat_every] seconds from a dedicated thread, so even a
    compute-bound job stays observable), and run the shared worker
    body with the cooperative [timeout] (the request's own wins).
    Returns the process exit code (0 or {!exit_failed}) as soon as the
    [done] or [fail] line is written.

    Chaos failpoints, read from the request's ["chaos"] field:
    ["crash"] SIGKILLs the process after the job is prepared (never
    writes the artifact); ["hang"] sleeps forever without heartbeats,
    so the supervisor's backstop must kill it. *)
val worker_main :
  ?timeout:float ->
  ?heartbeat_every:float ->
  ?cache_dir:string ->
  request:string ->
  artifact:string ->
  unit ->
  int
