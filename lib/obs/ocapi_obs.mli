(** Simulation telemetry: a process-wide registry of counters, gauges
    and histograms plus a span tracer exporting Chrome trace-event JSON.

    The paper's Table 1 says {e how fast} each simulation engine is;
    this module is the instrument that says {e why}.  Every engine of
    the environment (the three-phase scheduler, the compiled closure
    program, the event-driven RT kernel, the gate-level simulator) and
    the synthesis passes report into the same registry, and timed spans
    accumulate into a trace that Perfetto or [chrome://tracing] opens
    directly.

    Telemetry is {b disabled by default} and the disabled path is cheap
    enough to leave compiled into the hot loops: one mutable-bool read
    per instrumentation site.  Nothing is recorded, and no time source
    is consulted, until {!enable} is called. *)

(** {1 Minimal JSON} *)

(** A tiny JSON tree and serializer, so telemetry (and the benchmark
    harness) can emit well-formed JSON without an external dependency.
    Serialization escapes control characters, quotes and backslashes;
    non-finite floats print as [null]. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_buffer : Buffer.t -> t -> unit
  val to_string : t -> string

  (** [of_string s] parses strict JSON (the subset {!to_string} emits:
      no comments, no trailing commas; numbers without [.], [e] or [E]
      that fit an OCaml [int] parse as [Int], everything else as
      [Float]).  Returns [Error msg] with the failing offset on
      malformed input, on objects with duplicate keys, and on input
      nested deeper than 255 containers (a stack-overflow guard).  This
      is the parser behind every JSONL file ({!File.read_jsonl}). *)
  val of_string : string -> (t, string) result

  (** [member key j] is field [key] of object [j] ([None] when absent
      or [j] is not an object). *)
  val member : string -> t -> t option
end

(** {1 Files}

    The one way the environment reads and writes its files: manifests,
    the job journal, the fuzz corpus, the event log, the perf ledger,
    job artifacts, cache entries and every emitted file.  No function
    here raises on a path: each failure (a directory where a file
    belongs, a missing parent that cannot be made, no permission) is an
    [Error "<path>: <reason>"].

    A JSONL file holds one JSON object per line; blank lines and lines
    starting with [#] are skipped.  What a malformed line means is the
    caller's policy: the job journal, the perf ledger and the fuzz
    corpus, which are appended to while the environment runs, drop a
    torn final line; manifests and the event log reject any bad
    line. *)
module File : sig
  (** [mkdir_p dir] creates [dir] and its missing parents. *)
  val mkdir_p : string -> (unit, string) result

  (** [read path] is the whole file. *)
  val read : string -> (string, string) result

  (** [read_jsonl path] is each JSONL line's 1-based number and its
      {!Json.of_string} result, in file order. *)
  val read_jsonl : string -> ((int * (Json.t, string) result) list, string) result

  (** [drop_torn_tail lines] is [lines] of {!read_jsonl} less a final
      line that is not valid JSON: the line a writer killed mid-append
      leaves.  A bad line before it is still there to reject. *)
  val drop_torn_tail :
    (int * (Json.t, string) result) list -> (int * (Json.t, string) result) list

  (** [decode path lines f] maps every line of {!read_jsonl} through
      [f]; the first line that fails to parse or decode is [Error
      "<path>:<line>: <reason>"]. *)
  val decode :
    string ->
    (int * (Json.t, string) result) list ->
    (Json.t -> ('a, string) result) ->
    ('a list, string) result

  (** [append_line path line] appends [line] and a newline, creating
      the file and its parents; the line is in the file when it
      returns.  Appenders hold a lock on the file (and, within a
      process, a mutex), so concurrent lines of any length go out
      whole.  Bytes after the last newline, a line torn by a writer
      killed mid-append, are cut first, so a torn line is only ever
      the final one. *)
  val append_line : string -> string -> (unit, string) result

  (** [publish path data] replaces the file at [path] with [data]
      atomically: it writes [<path>.<pid>.<domain>.tmp], creating the
      parent directories, then renames it over [path].  On failure the
      temp file is removed. *)
  val publish : string -> string -> (unit, string) result
end

(** {1 Master switch} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** {1 Metrics}

    Metrics are identified by name in one registry {e per domain}
    (domain-local storage): the hot instrumentation paths stay
    lock-free, and a single-domain program sees exactly the historical
    process-wide behaviour.  A parallel campaign worker accumulates
    into its own domain's registry; the campaign runner merges each
    worker's {!export_domain} back into the coordinating domain with
    {!absorb_domain} at join (see [Ocapi_parallel]).

    The by-name operations below look the metric up (creating it on
    first use) and are intended for enabled-path instrumentation; they
    are no-ops while telemetry is disabled. *)

(** [count ?n name] adds [n] (default 1) to the counter [name]. *)
val count : ?n:int -> string -> unit

(** [set_gauge name v] sets the gauge [name] to [v]. *)
val set_gauge : string -> float -> unit

(** [max_gauge name v] raises the gauge [name] to [v] if [v] is larger
    (a high-water mark). *)
val max_gauge : string -> float -> unit

(** [observe ?buckets name v] records [v] into the histogram [name].
    [buckets] (ascending upper bounds; a final overflow bucket is
    implicit) is honoured only when the histogram is first created;
    the default is powers of two from 1 to 2{^20}. *)
val observe : ?buckets:float array -> string -> float -> unit

(** A histogram snapshot: [hs_buckets] pairs each upper bound with its
    cumulative-free (per-bucket) count; the final pair has bound
    [infinity].  [hs_min]/[hs_max] are [infinity]/[neg_infinity] when
    empty. *)
type hist_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_buckets : (float * int) list;
}

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of hist_snapshot

(** [hist_quantile hs q] estimates the [q]-quantile ([0.0 .. 1.0]) of a
    histogram snapshot: the observation is located in its bucket by
    cumulative count and interpolated linearly inside it, clamped to
    the recorded [hs_min]/[hs_max].  [nan] on an empty histogram.  The
    batch bench derives its queue-latency p50/p95 from this. *)
val hist_quantile : hist_snapshot -> float -> float

(** All registered metrics, sorted by name. *)
val snapshot : unit -> (string * value) list

val value_json : value -> Json.t

(** The whole registry as a JSON object keyed by metric name. *)
val metrics_json : unit -> Json.t

(** Drop every registered metric. *)
val reset_metrics : unit -> unit

(** {1 Span tracing}

    Spans become Chrome trace-event ["ph":"X"] (complete) events.
    Timestamps are microseconds since the last {!clear_trace} (or
    {!reset}).  The buffer is bounded; events past the cap are counted
    in {!dropped_events} instead of recorded. *)

(** [span_begin ()] is the current time in microseconds, or [nan] while
    telemetry is disabled. *)
val span_begin : unit -> float

(** [span_end ?cat ?args name t0] records the span [name] begun at
    [t0].  A no-op when [t0] is [nan] or telemetry has been disabled
    meanwhile. *)
val span_end : ?cat:string -> ?args:(string * Json.t) list -> string -> float -> unit

(** [with_span ?cat ?args name f] runs [f ()] inside a span. *)
val with_span : ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a

(** An instant (["ph":"i"]) event. *)
val instant : ?cat:string -> ?args:(string * Json.t) list -> string -> unit

val event_count : unit -> int
val dropped_events : unit -> int
val clear_trace : unit -> unit

(** The trace as a Chrome trace-event JSON object
    ([{"traceEvents": [...], ...}]) — open it in Perfetto or
    [chrome://tracing]. *)
val trace_json : unit -> string

(** {1 Cross-domain merge}

    Metrics and trace events live in domain-local storage, so a worker
    domain spawned while telemetry is enabled records into buffers of
    its own.  Before such a worker terminates it calls
    {!export_domain}; the coordinating domain then feeds every export
    through {!absorb_domain} {e after joining} the workers.  Merging is
    deterministic given a fixed absorption order: counters and
    histograms add, gauges keep the maximum (the only associative,
    commutative merge available without an ordering between domains),
    and trace events append, keeping their producing domain as the
    Chrome trace [tid] so each worker renders as its own track. *)

(** A domain's telemetry, packaged for transfer to the joining domain. *)
type domain_export

(** Snapshot the {e calling} domain's metrics and trace buffer. *)
val export_domain : unit -> domain_export

(** Merge a worker's export into the {e calling} domain's registry and
    trace buffer (counters/histograms add, gauges max, events append). *)
val absorb_domain : domain_export -> unit

(** {1 Reports} *)

(** [reset ()] = {!disable} + {!reset_metrics} + {!clear_trace}: back to
    the pristine (disabled, empty) state. *)
val reset : unit -> unit

type report = {
  rp_label : string;
  rp_seconds : float;  (** wall-clock of the measured section *)
  rp_metrics : (string * value) list;
  rp_events : int;  (** trace events recorded (after drops) *)
}

(** [run_with_telemetry ~label f] resets the registry and the trace,
    enables telemetry, runs [f], snapshots, and restores the previous
    enabled state.  The trace buffer is left intact so the caller can
    render {!trace_json} afterwards. *)
val run_with_telemetry : label:string -> (unit -> 'a) -> 'a * report

val report_json : report -> Json.t
val pp_report : Format.formatter -> report -> unit

(** {1 Structured event log}

    Job-lifecycle events ([job_submitted], [job_started],
    [job_completed], [job_deduped], [job_failed], [job_cancelled], the
    campaign-service resilience markers
    [job_rejected]/[worker_crashed]/[job_retried], and the engine-level
    [run_started]/[run_finished]) recorded into one
    process-wide buffer, independent of the metric registry: a campaign
    emits a handful of events per job, so a single mutex-guarded list
    keeps a total order across domains without touching the lock-free
    hot paths.

    Every event may carry a {e correlation id} — [Ocapi_batch] derives
    it from the job's dedup key and [Flow.simulate] tags its trace span
    with the same id, so an event log and a Perfetto trace join per
    job. *)
module Events : sig
  type event = {
    e_seq : int;  (** emission order, 1-based *)
    e_ts : float;  (** unix seconds at emission *)
    e_kind : string;
    e_corr : string;  (** correlation id; [""] when uncorrelated *)
    e_fields : (string * Json.t) list;
  }

  (** The event log has its own switch (default off) so batch campaigns
      can record lifecycle events without enabling full telemetry. *)
  val enabled : unit -> bool

  val set_enabled : bool -> unit

  (** [emit ?corr ?fields kind] appends an event; a no-op while the log
      is disabled. *)
  val emit : ?corr:string -> ?fields:(string * Json.t) list -> string -> unit

  (** Recorded events in emission order. *)
  val events : unit -> event list

  val clear : unit -> unit

  (** Canonical form: wall-clock stamps dropped, events sorted by
      (correlation id, lifecycle rank, rendered fields), [e_seq]
      renumbered — byte-identical however the domain interleaving went.
      The determinism gate compares canonical event logs of serial and
      parallel runs. *)
  val canonicalize : event list -> event list

  (** [to_json ~ts e] renders one event ([ts:false] omits the
      wall-clock field, as canonical output must). *)
  val to_json : ?ts:bool -> event -> Json.t

  (** The buffered events, {!canonicalize}d, as JSONL: the file
      [--events-out] publishes. *)
  val canonical_jsonl : unit -> string

  (** Parse an event-log JSONL file back into JSON lines.  [Error] is
      a path that cannot be read; [Ok (Error _)] names the first
      malformed line.  A missing file is [Ok (Ok [])]. *)
  val load : string -> ((Json.t list, string) result, string) result
end

(** {1 Perf ledger}

    An append-only JSONL time series of benchmark results: the perf
    gate ([scripts/perf_gate.sh]) appends one line per cycle rate of a
    short [bench/perf] pass, keyed by bench name, engine, design
    digest, git commit, hostname, domain count and timestamp, and
    compares each series' newest entry against the median of its
    recent history ([ocapi report --gate]). *)
module Ledger : sig
  type entry = {
    en_bench : string;
    en_engine : string;
    en_digest : string;  (** [Cycle_system.digest]; [""] when n/a *)
    en_value : float;  (** a rate — bigger is better *)
    en_unit : string;  (** e.g. ["cycles/s"], ["runs/s"], ["jobs/s"] *)
    en_commit : string;
    en_host : string;
    en_domains : int;
    en_ts : float;  (** unix seconds *)
  }

  (** [$OCAPI_LEDGER] when set, else ["PERF_LEDGER.jsonl"]. *)
  val default_path : unit -> string

  (** [entry ~bench ~engine v] stamps a new entry with the current
      commit (read from [.git/HEAD], no subprocess), hostname, domain
      count ({!Domain.recommended_domain_count} unless [domains] is
      given) and time. *)
  val entry :
    ?digest:string ->
    ?unit_:string ->
    ?domains:int ->
    bench:string ->
    engine:string ->
    float ->
    entry

  val entry_json : entry -> Json.t
  val entry_of_json : Json.t -> (entry, string) result

  (** Append one line ({!File.append_line}): concurrent appenders, in
      this process or another, interleave whole lines, and a torn final
      line is cut before the entry is written. *)
  val append : ?path:string -> entry -> (unit, string) result

  (** All entries in file order (chronological).  [Error] is a path
      that cannot be read; [Ok (Error _)] names the first malformed
      line.  A missing file is [Ok (Ok [])]; blank lines and [#]
      comments are skipped, and a torn final line (an append cut
      short) is dropped. *)
  val load :
    ?path:string -> unit -> ((entry list, string) result, string) result

  val median : float list -> float

  (** Entries grouped into series by (bench, engine, digest) — hostname
      deliberately excluded so CI runners with per-run hostnames still
      accumulate a baseline — in first-appearance order, each series in
      file order. *)
  val series_of : entry list -> ((string * string * string) * entry list) list

  type status =
    | Fresh  (** no prior same-series entries *)
    | Steady
    | Improved  (** latest at least [tolerance] above baseline *)
    | Regressed  (** latest at least [tolerance] below baseline *)
    | Collapsed  (** latest at least [hard_tolerance] below baseline *)

  val status_label : status -> string

  type verdict = {
    v_bench : string;
    v_engine : string;
    v_digest : string;
    v_latest : entry;
    v_baseline : float;  (** median of recent history; [nan] when Fresh *)
    v_window : int;  (** prior entries behind the baseline *)
    v_delta : float;  (** (latest - baseline) / baseline; [nan] when Fresh *)
    v_status : status;
  }

  (** One verdict per series: the newest entry against the median of up
      to [window] (default 5) immediately preceding same-series entries.
      [tolerance] (default 0.2) bounds [Steady]; [hard_tolerance]
      (default 0.5) marks a throughput collapse. *)
  val verdicts :
    ?window:int ->
    ?tolerance:float ->
    ?hard_tolerance:float ->
    entry list ->
    verdict list

  val worst_status : verdict list -> status
  val verdict_json : verdict -> Json.t

  (** [{"worst": ..., "verdicts": [...]}] — the machine-readable gate
      output. *)
  val verdicts_json : verdict list -> Json.t

  (** Unicode block sparkline of the last [width] (default 16) values. *)
  val sparkline : ?width:int -> float list -> string

  (** Terminal trend table: one row per series with latest value,
      baseline, delta and sparkline. *)
  val pp_trends :
    ?window:int ->
    ?tolerance:float ->
    ?hard_tolerance:float ->
    Format.formatter ->
    entry list ->
    unit

  (** A self-contained static HTML page (inline CSS, no scripts, no
      external assets): per-series trend table with sparklines, recent
      history, and an optional event-log section. *)
  val html_page :
    ?events:Json.t list ->
    ?window:int ->
    ?tolerance:float ->
    ?hard_tolerance:float ->
    entry list ->
    string
end
