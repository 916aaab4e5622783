(** The job vocabulary of the job runner.

    A verification campaign over a design is dozens to thousands of
    requests — simulate this configuration, sweep the engines, run the
    SEU and stuck-at campaigns — written one JSON object per line in a
    manifest.  This module is everything about a job that does not
    depend on {e how} it runs:

    - the {b designs}: jobs name [Gallery] designs, whose builders are
      deterministic, so a design built at admission and again in a
      worker process hashes alike;
    - the {b jobs} ({!job}) and {b requests} ({!request}): a job plus
      its priority class, timeout and label;
    - the {b manifest reader} ({!read_manifest}) and the {b parser}
      ({!request_of_json}), which validates every field;
    - {b preparation} ({!prepare_request}): the design is built and
      fingerprinted through {!Flow.Cache.key_of}, giving the dedup key,
      the correlation id, the artifact file name and the closure that
      executes the job.

    The one runner, [Ocapi_service], admits requests through these
    functions and executes the prepared closures on its workers:
    in-process domains for [ocapi batch], supervised [ocapi worker]
    processes for [ocapi serve].  An artifact contains only the job's
    canonical report — the same bytes the CLI's [--json] renderings
    print — so it is identical whichever kind of worker, and however
    many of them, ran the job. *)

(** {1 Jobs} *)

type priority = High | Normal | Low

type job =
  | Simulate of {
      sim_design : string;
      sim_engine : string;  (** engine registry name or alias *)
      sim_cycles : int;
      sim_seed : int;
    }
  | Seu of {
      seu_design : string;
      seu_engine : string;
      seu_runs : int;
      seu_cycles : int;
      seu_seed : int;
    }
  | Stuck_at of {
      sa_design : string;
      sa_cycles : int;
      sa_seed : int;
      sa_max_faults : int option;
    }
  | Engine_sweep of { sw_design : string; sw_cycles : int }
  | Fuzz of {
      fu_seed : int;  (** campaign seed; per-design seeds derive from it *)
      fu_count : int;  (** fresh generated designs to check *)
      fu_engines : string list option;
          (** engine roster ([None] = {!Ocapi_diff.default_engines}) *)
      fu_deep : bool;  (** also run SEU / stuck-at cross-checks *)
      fu_shrink : bool;  (** shrink failing designs to reproducers *)
    }
      (** A differential fuzz campaign ({!Ocapi_diff.fuzz}).  Unlike the
          other kinds it references no gallery design — the campaign
          generates its own — so its dedup key is its parameter tuple
          and its artifact is the canonical fuzz report. *)

type request = {
  rq_job : job;
  rq_priority : priority;
  rq_timeout : float option;  (** wall-clock budget in seconds, > 0 *)
  rq_label : string option;
}

(** {1 Manifests}

    One JSON object per line, e.g.

    {v
{"kind": "seu", "design": "hcor", "engine": "compiled",
 "runs": 200, "cycles": 48, "seed": 1, "priority": "high"}
    v}

    Fields: [kind] (["simulate"] | ["seu"] | ["stuck-at"] |
    ["engine-sweep"] | ["fuzz"]) is required, and so is [design] for
    every kind but ["fuzz"] (a fuzz campaign generates its own
    designs); [engine], [cycles], [runs], [seed], [max_faults],
    [priority] (["high"] | ["normal"] | ["low"]), [timeout] (seconds)
    and [label] are optional with the same defaults as the CLI.  A
    ["fuzz"] job additionally takes [count] (default 25), [engines] (a
    JSON list of engine names), [deep] and [shrink] (booleans).
    Unknown fields are ignored here and kept in the raw object: the
    runner reads ["chaos"] from it. *)

(** [read_manifest path] reads a JSONL manifest
    ({!Ocapi_obs.File.read_jsonl}) into its raw values, skipping blank
    lines and [#] comments.  The values are kept raw so that the journal
    can store them verbatim; {!request_of_json} validates each one at
    admission.  [Error] carries the 1-based line number of the first
    line that is not JSON, or names a path that cannot be read. *)
val read_manifest : string -> (Ocapi_obs.Json.t list, string) result

(** One manifest object to a request.  Validates every field: its JSON
    type, the job kind and priority class, a positive [cycles], [runs],
    [count], [max_faults] and [timeout].  [Error] carries a message
    naming the offending field.  Design and engine names are resolved
    by {!prepare_request}. *)
val request_of_json : Ocapi_obs.Json.t -> (request, string) result

(** {1 Preparation} *)

type prepared = {
  pr_key : string;  (** the {!Flow.Cache.key_of} dedup fingerprint *)
  pr_corr : string;  (** correlation id: {!corr_of_key} [pr_key] *)
  pr_label : string;  (** display label (the request's, or derived) *)
  pr_artifact_file : string;  (** artifact file name: label slug + key digest *)
  pr_run : progress:(unit -> unit) -> Ocapi_obs.Json.t;
      (** executes the job and returns its canonical report; [progress]
          is the cooperative stop hook, threaded down to the engine
          stepping loops — it raises to abandon the job *)
}

(** [prepare_request r] resolves the design and engine, builds and
    fingerprints the system (the caller owns it from then on: run
    [pr_run] on one domain at a time) and returns the job's identity
    plus the closure that executes it.  Call it from the domain that
    builds designs: construction touches process-wide gensyms.
    @raise Ocapi_error.Error with code [Unsupported] on an unknown
    design or engine name. *)
val prepare_request : request -> prepared

(** The correlation id of a dedup key: a 12-hex-digit digest prefix,
    identical across runs, worker kinds and processes.  Job events,
    the journal and the [Flow.simulate] trace span of the execution
    join on it. *)
val corr_of_key : string -> string

(** {1 JSON fields}

    Typed reads of one field of a JSON object, shared by the manifest
    parser and the runner's journal parser. *)
module Field : sig
  type 'a t

  val string : string t
  val int : int t
  val bool : bool t
  val number : float t  (** an integer or a float *)

  (** [opt name conv j]: [Ok None] when [j] has no field [name],
      [Error] naming the field when its value has the wrong type. *)
  val opt : string -> 'a t -> Ocapi_obs.Json.t -> ('a option, string) result

  (** As {!opt}, with a missing field an [Error] too. *)
  val req : string -> 'a t -> Ocapi_obs.Json.t -> ('a, string) result
end
